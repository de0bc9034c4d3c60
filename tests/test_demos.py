"""Each quick demo runs to completion against this tree's package, and
writes its files only into the output directory it is given.

Demo 05 trains for minutes and stays out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_simulate_world.py", "02_lidar_and_tracking.py",
         "03_global_paths.py", "04_orca_circle.py", "06_benchmark_doorway.py")
# the files each demo writes into the output directory it takes
WRITES = {"03_global_paths.py": {"doorway_map.pgm", "doorway_map.pgm.json"},
          "04_orca_circle.py": {"orca_circle.jsonl", "orca_circle.svg"},
          "06_benchmark_doorway.py": {"doorway_metrics.csv"}}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    argv = [sys.executable, str(ROOT / "demos" / name)]
    if name in WRITES:
        argv.append(str(out))
    # run from tmp_path, so a file written to the working directory lands
    # there and shows below
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    assert written == WRITES.get(name, set())
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if written
                                                     else [])
