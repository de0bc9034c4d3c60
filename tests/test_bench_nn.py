import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_nn.py"


def test_prints_host_and_median_per_pass():
    proc = subprocess.run([sys.executable, str(TOOL), "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["host"]["blas_threads"] in (1, None)
    assert set(doc["cases"]) == {"reduced_512x0", "full_256x3"}
    assert doc["cases"]["reduced_512x0"]["rows"] == 512
    assert doc["cases"]["full_256x3"]["nodes"] == 3
    for case in doc["cases"].values():
        assert case["host_speed_factor"] > 0.0
        for key in ("forward_batch", "backward_batch"):
            assert case[key]["median_ms"] > 0.0
            assert case[key]["scaled_median_ms"] > 0.0
