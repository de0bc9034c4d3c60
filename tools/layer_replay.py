"""Record the calls of the sensing layers (LiDAR raycast, static split and
ICP) from seeded benchmark rounds, and replay them.

    python3 tools/layer_replay.py record FILE [--seed N]
    python3 tools/layer_replay.py replay FILE [--repeats N]

`record` runs rounds of the benchmark's `policy-doorway10` (40 rounds) and
`policy-circle20-noise` (8 rounds) workloads, built and stepped by
perfbench's own workload code with workload seed N (default 951), tracing
off. Every `raycast_batch` call that `NavEnv` makes, every
`OccupancyGrid.occupied_near_points` call and every
`tracker.icp_translation` call is wrapped, in one pass, and its inputs and
this tree's answer are saved to FILE (an `.npz`): for a raycast the robots'
positions and headings, the observers and the world's static obstacles;
for a split query the points, the margin and the grid; for an ICP call
its source and destination point sets.

`replay` answers every recorded call with this tree's code, N times over
(default 5), and prints per workload and function the median ms per call.
For raycasts and split queries it prints how many answers equal the
file's byte for byte. A split query is answered the way `NavEnv` splits:
through `planner.NearTable`, one per grid and margin, built inside the
timed loop. For ICP it prints the per-row deviation of this tree's
translations from the file's (p50, p99, max, in m) and the mean over rows
of the trimmed-RMS residual of each (in mm): the RMS of the residuals ICP
keeps, those within 3x the row's median, of the source moved by the
translation against the polyline through the destination points. On a
file recorded in the same tree every answer is identical; record in one
checkout and replay in another to compare two implementations on the same
inputs.

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
from types import SimpleNamespace
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# workload: rounds recorded (the doorway takes 2 steps a round, circle-20 6)
ROUNDS = {"policy-doorway10": 40, "policy-circle20-noise": 8}


def load_perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ragged(arrays: list) -> tuple:
    """One concatenated array and the length of each part."""
    import numpy as np

    return np.concatenate(arrays), np.array([len(a) for a in arrays])


def unragged(data, key: str) -> list:
    import numpy as np

    return np.split(data[key], np.cumsum(data[key + "_len"])[:-1])


def record(path: str, seed: int) -> None:
    import numpy as np

    import workloads
    from multinav import planner, rollout, tracker

    raycast_batch = rollout.raycast_batch
    near_points = planner.OccupancyGrid.occupied_near_points
    icp_translation = tracker.icp_translation
    arrays = {}
    for name, rounds in ROUNDS.items():
        worlds, grids = {}, {}          # id -> (index, object kept alive)
        casts, queries, icps = [], [], []

        def recorded_cast(world, observers):
            ranges = raycast_batch(world, observers)
            cfg = world.config
            key = worlds.setdefault(id(cfg), (len(worlds), cfg))[0]
            casts.append((key, world.positions.copy(), world.headings.copy(),
                          np.array(observers, dtype=int), ranges))
            return ranges

        def recorded_query(grid, points, margin, *args):
            near = near_points(grid, points, margin, *args)
            key = grids.setdefault(id(grid), (len(grids), grid))[0]
            queries.append((key, points.copy(), margin, near))
            return near

        def recorded_icp(srcs, dsts):
            shifts = icp_translation(srcs, dsts)
            icps.append((srcs, dsts, shifts))
            return shifts

        workload = workloads.WORKLOADS[name]()
        run = workloads.Run(seed=seed)
        with mock.patch.object(rollout, "raycast_batch", recorded_cast), \
                mock.patch.object(planner.OccupancyGrid,
                                  "occupied_near_points", recorded_query), \
                mock.patch.object(tracker, "icp_translation", recorded_icp):
            workload.start(run)
            for trial in range(rounds):
                workload.round(run, trial, workloads.Tally(), None)
            workload.finish(run)
        configs = [cfg for _, cfg in sorted(worlds.values(), key=lambda v: v[0])]
        maps = [g for _, g in sorted(grids.values(), key=lambda v: v[0])]
        for key, parts in (
                ("cast/pos", [c[1] for c in casts]),
                ("cast/heading", [c[2] for c in casts]),
                ("cast/observers", [c[3] for c in casts]),
                ("cast/ranges", [c[4] for c in casts]),
                ("world/circles", [np.array([[c.cx, c.cy, c.r] for c in cfg.circles]
                                            ).reshape(-1, 3) for cfg in configs]),
                ("world/walls", [np.array([w.aabb for w in cfg.walls]
                                          ).reshape(-1, 4) for cfg in configs]),
                ("query/points", [q[1] for q in queries]),
                ("query/near", [q[3] for q in queries]),
                ("grid/cells", [g.cells.ravel() for g in maps]),
                ("icp/src", [s for c in icps for s in c[0]]),
                ("icp/dst", [d for c in icps for d in c[1]]),
                ("icp/shift", [c[2] for c in icps])):   # _len: rows per call
            arrays[f"{name}/{key}"], arrays[f"{name}/{key}_len"] = ragged(parts)
        arrays.update({
            f"{name}/cast/world": np.array([c[0] for c in casts]),
            f"{name}/world/radius": np.array([c.robot_radius for c in configs]),
            f"{name}/query/grid": np.array([q[0] for q in queries]),
            f"{name}/query/margin": np.array([q[2] for q in queries]),
            f"{name}/grid/shape": np.array([g.cells.shape for g in maps]),
            f"{name}/grid/origin": np.array([g.origin for g in maps]),
            f"{name}/grid/resolution": np.array([g.resolution for g in maps]),
            f"{name}/grid/inflation": np.array([g.inflation_radius
                                                for g in maps]),
        })
        print(f"{name}: {len(casts)} raycasts in {len(configs)} worlds, "
              f"{len(queries)} split queries on {len(maps)} grids, "
              f"{len(icps)} ICP calls with {sum(len(c[0]) for c in icps)} rows")
    np.savez(path, **arrays)


def timed(answer_all, repeats: int) -> tuple:
    """The answers of answer_all() and its median ms per answer over
    repeats passes."""
    ms = []
    for _ in range(repeats):
        t0 = perf_counter()
        got = answer_all()
        ms.append(1000.0 * (perf_counter() - t0) / len(got))
    return got, median(ms)


def identical(got: list, want: list) -> str:
    same = sum(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return f"{same} of {len(want)} identical"


def replay_casts(data, name: str, repeats: int) -> None:
    from multinav import lidar
    from multinav.geometry import Circle

    # raycast_batch reads a World's positions, headings and config, and of
    # the config the robot radius, the circles and each wall's box
    configs = [SimpleNamespace(
                   robot_radius=float(radius),
                   circles=[Circle(*c) for c in circles.tolist()],
                   walls=[SimpleNamespace(aabb=tuple(b)) for b in boxes.tolist()])
               for circles, boxes, radius in zip(
                   unragged(data, f"{name}/world/circles"),
                   unragged(data, f"{name}/world/walls"),
                   data[f"{name}/world/radius"])]
    calls = [(SimpleNamespace(positions=p, headings=h, config=configs[k]),
              o.tolist())
             for p, h, k, o in zip(unragged(data, f"{name}/cast/pos"),
                                   unragged(data, f"{name}/cast/heading"),
                                   data[f"{name}/cast/world"].tolist(),
                                   unragged(data, f"{name}/cast/observers"))]
    got, ms = timed(lambda: [lidar.raycast_batch(*c) for c in calls], repeats)
    print(f"{name} raycast_batch: {len(calls)} calls, {ms:.3f} ms per call "
          f"(median of {repeats}), "
          f"{identical(got, unragged(data, f'{name}/cast/ranges'))}")


def replay_queries(data, name: str, repeats: int) -> None:
    from multinav import planner

    grids = [planner.OccupancyGrid(resolution=float(res), origin=tuple(origin),
                                   cells=cells.reshape(shape),
                                   inflation_radius=float(inflation))
             for cells, shape, origin, res, inflation in zip(
                 unragged(data, f"{name}/grid/cells"),
                 data[f"{name}/grid/shape"].tolist(),
                 data[f"{name}/grid/origin"].tolist(),
                 data[f"{name}/grid/resolution"],
                 data[f"{name}/grid/inflation"])]
    points = unragged(data, f"{name}/query/points")
    calls = list(zip(data[f"{name}/query/grid"].tolist(), points,
                     data[f"{name}/query/margin"].tolist()))

    def answer_all():
        tables, got = {}, []            # one NearTable per grid and margin
        for k, pts, margin in calls:
            if (k, margin) not in tables:
                tables[k, margin] = planner.NearTable(grids[k], margin)
            got.append(tables[k, margin](pts))
        return got

    got, ms = timed(answer_all, repeats)
    print(f"{name} occupied_near_points: {len(calls)} calls, "
          f"{sum(map(len, points))} points, {ms:.3f} ms per call (median of "
          f"{repeats}), {identical(got, unragged(data, f'{name}/query/near'))}")


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


def replay_icp(data, name: str, repeats: int) -> None:
    import numpy as np

    from multinav.tracker import icp_translation

    srcs = unragged(data, f"{name}/icp/src")
    dsts = unragged(data, f"{name}/icp/dst")
    rows = data[f"{name}/icp/shift_len"].tolist()
    ends = np.cumsum(rows).tolist()
    calls = [(srcs[e - r:e], dsts[e - r:e]) for r, e in zip(rows, ends)]
    got, ms = timed(lambda: [icp_translation(*c) for c in calls], repeats)
    new = np.concatenate(got)
    old = data[f"{name}/icp/shift"]
    dev = np.hypot(*(new - old).T)
    rms = [[trimmed_rms(s, d, t) for s, d, t in zip(srcs, dsts, shift)]
           for shift in (old, new)]
    print(f"{name} icp_translation: {len(calls)} calls, {len(new)} rows, "
          f"{ms:.3f} ms per call (median of {repeats})")
    print(f"  deviation from the file's translations: p50 "
          f"{np.percentile(dev, 50):.3g} m, p99 {np.percentile(dev, 99):.3g}"
          f" m, max {dev.max():.3g} m")
    print(f"  mean trimmed-RMS residual: file {1000 * np.mean(rms[0]):.3f} "
          f"mm, this tree {1000 * np.mean(rms[1]):.3f} mm")


def replay(path: str, repeats: int) -> None:
    import numpy as np

    data = np.load(path)
    for name in ROUNDS:
        for layer in (replay_casts, replay_queries, replay_icp):
            layer(data, name, repeats)


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
