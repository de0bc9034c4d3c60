import subprocess
import sys
from pathlib import Path

import pytest

LAYER_REPLAY = (Path(__file__).resolve().parent.parent / "tools"
                / "layer_replay.py")


@pytest.fixture(scope="session")
def layer_replay_outputs(tmp_path_factory):
    """stdout of `layer_replay.py record F` then `replay F --repeats 1`,
    run once for every test that checks the tool's self-replay."""
    path = tmp_path_factory.mktemp("layer_replay") / "layers.npz"
    outs = []
    for argv in (["record", str(path)],
                 ["replay", str(path), "--repeats", "1"]):
        proc = subprocess.run([sys.executable, str(LAYER_REPLAY), *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return tuple(outs)
