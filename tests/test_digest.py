"""The committed corpus digest: `tools/corpus_digest.py` must print
`tools/corpus_digest.txt` byte for byte.  A change that moves a report, a
stabilization step, a graph move or a search result updates the file, and
its diff names every line that moved."""

import difflib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tools" / "corpus_digest.txt"


def test_corpus_digest_is_unchanged():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "corpus_digest.py")],
                          capture_output=True, cwd=ROOT, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    committed = DIGEST.read_bytes()
    if proc.stdout != committed:
        diff = difflib.unified_diff(
            committed.decode().splitlines(), proc.stdout.decode().splitlines(),
            str(DIGEST.relative_to(ROOT)), "regenerated", lineterm="", n=0)
        pytest.fail("the corpus digest differs from the committed one:\n"
                    + "\n".join(itertools.islice(diff, 40)))
