"""The benchmark's self-test, run as its own process.

perfbench/selftest.py reads and writes robot state through World and
RobotState attribute names (position, status, heading, ...) and feeds every
correctness check a broken output. Running it here keeps that contract
checked with the rest of the suite. It writes only under perfbench/results/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_exits_zero():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
