"""Record the LiDAR raycasts and static-split queries of seeded benchmark
rounds, and replay them.

    python3 tools/sense_replay.py record FILE [--seed N]
    python3 tools/sense_replay.py replay FILE [--repeats N]

`record` runs rounds of the benchmark's `policy-doorway10` (40 rounds) and
`policy-circle20-noise` (8 rounds) workloads, built and stepped by
perfbench's own workload code with workload seed N (default 951), tracing
off. Every `raycast_batch` call that `NavEnv` makes and every
`OccupancyGrid.occupied_near_points` call is wrapped, and its inputs and
this tree's answer are saved to FILE (an `.npz`): for a raycast the robots'
positions and headings, the observers and the world's static obstacles;
for a split query the points, the margin and the grid.

`replay` answers every recorded call with this tree's code, N times over
(default 5), and prints per workload and function the median ms per call
and how many answers equal the file's byte for byte. A split query is
answered the way `NavEnv` splits: through `planner.NearTable`, one per grid
and built inside the timed loop, where the tree has one, and through
`occupied_near_points` alone where it does not. Record in one checkout and
replay in another to compare two implementations on the same inputs.

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
    from multinav import planner, rollout

    raycast_batch = rollout.raycast_batch
    near_points = planner.OccupancyGrid.occupied_near_points
    arrays = {}
    for name, rounds in ROUNDS.items():
        worlds, grids = {}, {}          # id -> (index, object kept alive)
        casts, queries = [], []

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

        workload = workloads.WORKLOADS[name]()
        run = workloads.Run(seed=seed)
        rollout.raycast_batch = recorded_cast
        planner.OccupancyGrid.occupied_near_points = recorded_query
        try:
            workload.start(run)
            for trial in range(rounds):
                workload.round(run, trial, workloads.Tally(), None)
            workload.finish(run)
        finally:
            rollout.raycast_batch = raycast_batch
            planner.OccupancyGrid.occupied_near_points = near_points
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
                ("grid/cells", [g.cells.ravel() for g in maps])):
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
              f"{len(queries)} split queries on {len(maps)} grids")
    np.savez(path, **arrays)


def replay_casts(data, name: str, repeats: int):
    """(median ms per call, identical answers, calls)."""
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
    worlds = [SimpleNamespace(positions=p.reshape(-1, 2), headings=h,
                              config=configs[k])
              for p, h, k in zip(unragged(data, f"{name}/cast/pos"),
                                 unragged(data, f"{name}/cast/heading"),
                                 data[f"{name}/cast/world"].tolist())]
    observers = [o.tolist() for o in unragged(data, f"{name}/cast/observers")]
    ms = []
    for _ in range(repeats):
        t0 = perf_counter()
        got = [lidar.raycast_batch(w, o) for w, o in zip(worlds, observers)]
        ms.append(1000.0 * (perf_counter() - t0) / len(worlds))
    want = unragged(data, f"{name}/cast/ranges")
    same = sum(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return median(ms), same, len(worlds)


def replay_queries(data, name: str, repeats: int):
    """(median ms per call, identical answers, calls, points)."""
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
    points = [p.reshape(-1, 2) for p in unragged(data, f"{name}/query/points")]
    calls = list(zip(data[f"{name}/query/grid"].tolist(), points,
                     data[f"{name}/query/margin"].tolist()))
    table = getattr(planner, "NearTable", None)
    ms = []
    for _ in range(repeats):
        t0 = perf_counter()
        splitters, got = {}, []
        for k, pts, margin in calls:
            split = splitters.get((k, margin))
            if split is None:
                grid = grids[k]
                split = splitters[k, margin] = (
                    table(grid, margin) if table else
                    lambda p, grid=grid, margin=margin:
                        grid.occupied_near_points(p, margin))
            got.append(split(pts))
        ms.append(1000.0 * (perf_counter() - t0) / len(calls))
    want = unragged(data, f"{name}/query/near")
    same = sum(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return median(ms), same, len(calls), sum(map(len, points))


def replay(path: str, repeats: int) -> None:
    import numpy as np

    data = np.load(path)
    for name in ROUNDS:
        ms, same, calls = replay_casts(data, name, repeats)
        print(f"{name} raycast_batch: {calls} calls, {ms:.3f} ms per call "
              f"(median of {repeats}), {same} of {calls} identical")
        ms, same, calls, n = replay_queries(data, name, repeats)
        print(f"{name} occupied_near_points: {calls} calls, {n} points, "
              f"{ms:.3f} ms per call (median of {repeats}), {same} of "
              f"{calls} identical")


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
