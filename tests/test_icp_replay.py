import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "icp_replay.py"


def test_replay_of_its_own_recording_deviates_nowhere(tmp_path):
    path = tmp_path / "jobs.npz"
    for argv in (["record", str(path)],
                 ["replay", str(path), "--repeats", "1"]):
        proc = subprocess.run([sys.executable, str(TOOL), *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    for name in ("policy-doorway10", "policy-circle20-noise"):
        assert re.search(rf"^{name}: \d+ calls, \d+ rows, [\d.]+ ms per call",
                         out, re.M), out
    assert out.count("p50 0 m, p99 0 m, max 0 m") == 2, out
    residuals = re.findall(r"file ([\d.]+) mm, this tree ([\d.]+) mm", out)
    assert len(residuals) == 2 and all(a == b for a, b in residuals), out
