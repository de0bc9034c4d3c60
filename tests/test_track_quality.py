import math
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "track_quality.py"


def test_one_seed_prints_three_numbers_per_run():
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "1",
                           "--steps", "10"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"^(clean|noisy): spawns ([\d.]+) per observer-step, "
                       r"velocity RMS ([\d.]+) m/s \(tracks >= 6 frames\), "
                       r"mean age ([\d.]+) frames$", proc.stdout, re.M)
    assert [f[0] for f in found] == ["clean", "noisy"], proc.stdout
    for _, spawns, rms, age in found:
        assert all(math.isfinite(float(v)) for v in (spawns, rms, age))
        assert float(age) >= 1.0
    # range noise splits and re-spawns tracks that clean scans keep
    assert float(found[1][1]) > float(found[0][1]), proc.stdout
