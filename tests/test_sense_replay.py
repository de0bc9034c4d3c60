import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sense_replay.py"


def test_replay_of_its_own_recording_answers_byte_for_byte(tmp_path):
    path = tmp_path / "sense.npz"
    outs = []
    for argv in (["record", str(path)],
                 ["replay", str(path), "--repeats", "1"]):
        proc = subprocess.run([sys.executable, str(TOOL), *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    recorded, replayed = outs
    for name in ("policy-doorway10", "policy-circle20-noise"):
        casts, queries = map(int, re.search(
            rf"^{name}: (\d+) raycasts in \d+ worlds, (\d+) split queries",
            recorded, re.M).groups())
        assert casts > 0 and queries > 0, recorded
        for function, calls in (("raycast_batch", casts),
                                ("occupied_near_points", queries)):
            assert re.search(
                rf"^{name} {function}: {calls} calls, .*[\d.]+ ms per call "
                rf"\(median of 1\), {calls} of {calls} identical$",
                replayed, re.M), replayed
