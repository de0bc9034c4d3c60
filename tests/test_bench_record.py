import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(directory, workload, seed, step_ms, trace=0, failed=0):
    host = {"cores": 2, "numpy": "x"}
    doc = {"workload": workload, "seed": seed, "seconds": 25.0,
           "trace": trace, "wall_s": 30.0, "host": host,
           "host_speed_factor": 0.5,
           "result": {"correct": failed == 0, "attempted": 10,
                      "failed": failed,
                      "metrics": {"step_ms": {"value": step_ms,
                                              "unit": "ms"}}}}
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc))
    return path


def test_medians_quartiles_and_totals(tmp_path, bench_record):
    for seed, ms in zip((3, 1, 2, 4, 5), (50.0, 10.0, 20.0, 30.0, 40.0)):
        write_result(tmp_path, "w", seed, ms, failed=int(seed == 4))
    write_result(tmp_path, "w", 9, 999.0, trace=1)     # traced: skipped
    write_result(tmp_path, "v", 7, 5.0)
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main([str(out), str(tmp_path), "--label", "x"]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "x"
    w = doc["workloads"]["w"]
    assert w["seeds"] == [1, 2, 3, 4, 5]
    assert (w["runs"], w["attempted"], w["failed"]) == (5, 50, 1)
    assert w["correct"] is False
    step = w["metrics"]["step_ms"]
    assert (step["median"], step["q1"], step["q3"]) == (30.0, 20.0, 40.0)
    assert step["values"] == [10.0, 20.0, 50.0, 30.0, 40.0]
    assert w["host"] == {"cores": 2, "numpy": "x"}
    v = doc["workloads"]["v"]["metrics"]["step_ms"]
    assert (v["median"], v["q1"], v["q3"]) == (5.0, 5.0, 5.0)


def test_no_results_exit_two(tmp_path, bench_record):
    assert bench_record.main([str(tmp_path / "B.json"), str(tmp_path)]) == 2
