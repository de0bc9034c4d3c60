"""Collect untraced benchmark results into one committed BENCH file.

    python3 tools/bench_record.py OUT.json RESULTS... [--label TEXT]

Each RESULTS argument is a `perfbench/results/<workload>-seed<N>-trace0.json`
file written by `python3 perfbench/run.py --workload W --seed N --trace 0`,
or a directory holding such files. The script groups the runs by workload
and writes, per workload: the median and quartiles of each end-to-end
metric (scaled to the reference host, as `run.py` reports them), the raw
values in run order, the seeds, the operations attempted and failed, and
the host block of the runs. Traced runs are skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles


def result_files(paths: list[str]) -> list[Path]:
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*-trace0.json")) if p.is_dir() else [p]
    return files


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def record(files: list[Path], label: str | None = None) -> dict:
    runs: dict[str, list[dict]] = {}
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("trace") != 0:
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    workloads = {}
    for name, docs in sorted(runs.items()):
        docs.sort(key=lambda d: d["seed"])
        hosts = []
        for d in docs:
            if d["host"] not in hosts:
                hosts.append(d["host"])
        metrics = {}
        for key, m in docs[0]["result"]["metrics"].items():
            metrics[key] = {"unit": m["unit"], **summary(
                [d["result"]["metrics"][key]["value"] for d in docs])}
        workloads[name] = {
            "runs": len(docs),
            "seeds": [d["seed"] for d in docs],
            "seconds": sorted({d["seconds"] for d in docs}),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "correct": all(d["result"]["correct"] for d in docs),
            "host_speed_factor": summary(
                [d["host_speed_factor"] for d in docs]),
            "metrics": metrics,
            "host": hosts[0] if len(hosts) == 1 else hosts,
        }
    return {"label": label, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="BENCH_<n>.json to write")
    p.add_argument("results", nargs="+",
                   help="trace0 result files or directories holding them")
    p.add_argument("--label", help="what the runs measured, e.g. a commit")
    args = p.parse_args(argv)
    doc = record(result_files(args.results), args.label)
    if not doc["workloads"]:
        print("error: no untraced result files found", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name, w in doc["workloads"].items():
        step = w["metrics"].get("step_ms", {}).get("median")
        print(f"{name}: {w['runs']} runs, {w['failed']} failed, "
              f"step_ms median {step}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
