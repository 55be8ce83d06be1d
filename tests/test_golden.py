"""The golden report corpus under perfbench/golden stays byte-identical."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_golden_corpus_identical():
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "golden.py"), "check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
