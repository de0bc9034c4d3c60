"""Record the tracker's ICP jobs from seeded benchmark rounds, and replay
them.

    python3 tools/icp_replay.py record FILE [--seed N]
    python3 tools/icp_replay.py replay FILE [--repeats N]

`record` runs rounds of the benchmark's `policy-doorway10` (40 rounds) and
`policy-circle20-noise` (8 rounds) workloads, built and stepped by
perfbench's own workload code with workload seed N (default 951), tracing
off. Every `tracker.icp_translation` call is wrapped, and its inputs and
this tree's translations are saved to FILE (an `.npz`).

`replay` runs this tree's `icp_translation` on every recorded call, N times
over (default 5), and prints per workload the median ms per call. It then
compares this tree's translations with the file's: the per-row deviation
(p50, p99, max, in m) and the mean over rows of the trimmed-RMS residual of
each (in mm): the RMS of the residuals ICP keeps, those within 3x the
row's median, of the source moved by the translation against the
polyline through the destination points. On a file recorded in the same
tree the deviation is zero; record in one checkout and replay in another
to compare two ICPs on the same inputs.

BLAS is pinned to one thread before numpy loads, and the package and
perfbench are imported from this tree, as in `perfbench/run.py`.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# workload: rounds recorded (the doorway takes 2 steps a round, circle-20 6)
ROUNDS = {"policy-doorway10": 40, "policy-circle20-noise": 8}


def load_perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(path: str, seed: int) -> None:
    import numpy as np

    import workloads
    from multinav import tracker

    original = tracker.icp_translation
    arrays = {}
    for name, rounds in ROUNDS.items():
        calls = []

        def recorded(srcs, dsts):
            shifts = original(srcs, dsts)
            calls.append((srcs, dsts, shifts))
            return shifts

        workload = workloads.WORKLOADS[name]()
        run = workloads.Run(seed=seed)
        tracker.icp_translation = recorded
        try:
            workload.start(run)
            for trial in range(rounds):
                workload.round(run, trial, workloads.Tally(), None)
            workload.finish(run)
        finally:
            tracker.icp_translation = original
        srcs = [s for c in calls for s in c[0]]
        dsts = [d for c in calls for d in c[1]]
        arrays.update({
            f"{name}/rows": np.array([len(c[0]) for c in calls]),
            f"{name}/src_len": np.array([len(s) for s in srcs]),
            f"{name}/dst_len": np.array([len(d) for d in dsts]),
            f"{name}/src": np.concatenate(srcs),
            f"{name}/dst": np.concatenate(dsts),
            f"{name}/shift": np.concatenate([c[2] for c in calls]),
        })
        print(f"{name}: {len(calls)} calls, {len(srcs)} rows")
    np.savez(path, **arrays)


def trimmed_rms(src, dst, shift) -> float:
    """RMS of the residuals ICP keeps at `shift`: src + shift projected onto
    the polyline through dst (onto the point when dst has one), residuals
    above 3x their median dropped."""
    import numpy as np

    moved = src + shift
    if len(dst) == 1:
        q = np.broadcast_to(dst[0], moved.shape)
    else:
        a, seg = dst[:-1], dst[1:] - dst[:-1]
        ap = moved[:, None] - a
        tt = np.clip((ap * seg).sum(axis=2)
                     / np.maximum((seg * seg).sum(axis=1), 1e-18), 0.0, 1.0)
        qs = a + tt[..., None] * seg
        nearest = ((moved[:, None] - qs) ** 2).sum(axis=2).argmin(axis=1)
        q = qs[np.arange(len(moved)), nearest]
    r = np.hypot(*(q - moved).T)
    kept = r[r <= 3.0 * np.median(r) + 1e-12]
    return float(np.sqrt(np.mean(kept * kept)))


def replay(path: str, repeats: int) -> None:
    import numpy as np

    from multinav.tracker import icp_translation

    data = np.load(path)
    for name in ROUNDS:
        rows = data[f"{name}/rows"]
        split = {}
        for key in ("src", "dst"):
            ends = np.cumsum(data[f"{name}/{key}_len"])[:-1]
            split[key] = np.split(data[f"{name}/{key}"], ends)
        starts = (np.cumsum(rows) - rows).tolist()
        jobs = [(split["src"][a:a + r], split["dst"][a:a + r])
                for a, r in zip(starts, rows.tolist())]
        ms = []
        for _ in range(repeats):
            t0 = perf_counter()
            shifts = [icp_translation(s, d) for s, d in jobs]
            ms.append(1000.0 * (perf_counter() - t0) / len(jobs))
        new = np.concatenate(shifts)
        old = data[f"{name}/shift"]
        dev = np.hypot(*(new - old).T)
        rms = [[trimmed_rms(s, d, t) for s, d, t in
                zip(split["src"], split["dst"], shift)] for shift in (old, new)]
        print(f"{name}: {len(jobs)} calls, {len(new)} rows, "
              f"{median(ms):.3f} ms per call (median of {repeats})")
        print(f"  deviation from the file's translations: p50 "
              f"{np.percentile(dev, 50):.3g} m, p99 {np.percentile(dev, 99):.3g}"
              f" m, max {dev.max():.3g} m")
        print(f"  mean trimmed-RMS residual: file {1000 * np.mean(rms[0]):.3f} "
              f"mm, this tree {1000 * np.mean(rms[1]):.3f} mm")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("file")
    rec.add_argument("--seed", type=int, default=951)
    rep = sub.add_parser("replay")
    rep.add_argument("file")
    rep.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    run = load_perfbench_run()
    run.pin_blas()
    run.use_checkout_source()
    if args.command == "record":
        record(args.file, args.seed)
    else:
        replay(args.file, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
