"""Correctness checks computed apart from the program.

Each check reads the program's outputs (robot states, scans, tracks, plans,
network outputs, training artefacts) and tests them against geometry,
search and decoding code written here, or against properties the method
must have. None compares with a stored copy of an earlier output. Every
check returns a list of problem strings; an empty list means it held.
"""

from __future__ import annotations

import base64
import csv
import json
import math

import numpy as np

# Documented constants of the method (README of the program): the action box
# v in [0, 1] m/s, a 120-beam scanner whose beam k points 2*pi*k/120 off the
# heading, and a 3.5 m maximum range.
V_MAX = 1.0
N_BEAMS = 120
MAX_RANGE = 3.5
HIT_MARGIN = 1e-6           # a range this close to MAX_RANGE is a non-return
SURFACE_TOL = 1e-6          # clean returns lie on a surface to rounding error
MOVE_TOL = 1e-9
COST_TOL = 1e-9
STATUSES = ("active", "reached_goal", "collided", "stuck")
SQRT2 = math.sqrt(2.0)


# ---- geometry ------------------------------------------------------------------


def wall_box(wall) -> tuple[float, float, float, float]:
    """Occupied box of an axis-aligned thick wall: the segment dilated by
    half its thickness across its own axis."""
    h = wall.thickness / 2.0
    xmin, xmax = min(wall.x0, wall.x1), max(wall.x0, wall.x1)
    ymin, ymax = min(wall.y0, wall.y1), max(wall.y0, wall.y1)
    if wall.y0 == wall.y1:
        return xmin, ymin - h, xmax, ymax + h
    return xmin - h, ymin, xmax + h, ymax


def box_signed_distance(points: np.ndarray, box) -> np.ndarray:
    """Signed distance from (n, 2) points to a box surface, negative inside."""
    xmin, ymin, xmax, ymax = box
    dx = np.maximum(xmin - points[:, 0], points[:, 0] - xmax)
    dy = np.maximum(ymin - points[:, 1], points[:, 1] - ymax)
    outside = np.sqrt(np.maximum(dx, 0.0) ** 2 + np.maximum(dy, 0.0) ** 2)
    return outside + np.minimum(np.maximum(dx, dy), 0.0)


def disc_signed_distance(points: np.ndarray, centers: np.ndarray,
                         radii) -> np.ndarray:
    """(n, m) signed distance from points to disc surfaces, negative inside."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2)) - np.asarray(radii)[None, :]


def static_signed_distance(points: np.ndarray, config) -> np.ndarray:
    """(n, k) signed distances to every static circle and wall."""
    cols = [disc_signed_distance(points, np.array([[c.cx, c.cy]]), [c.r])[:, 0]
            for c in config.circles]
    cols += [box_signed_distance(points, wall_box(w)) for w in config.walls]
    if not cols:
        return np.zeros((len(points), 0))
    return np.column_stack(cols)


def surface_gap(points: np.ndarray, world, observer: int) -> np.ndarray:
    """Distance from each point to the nearest true surface: a static
    obstacle or the disc of any robot other than the observer."""
    others = [r for j, r in enumerate(world.robots) if j != observer]
    cols = [np.abs(static_signed_distance(points, world.config))]
    if others:
        centers = np.array([r.position for r in others])
        cols.append(np.abs(disc_signed_distance(
            points, centers, [world.config.robot_radius] * len(others))))
    d = np.concatenate(cols, axis=1)
    if d.shape[1] == 0:
        return np.full(len(points), np.inf)
    return d.min(axis=1)


def on_other_robot(points: np.ndarray, world, observer: int,
                   tol: np.ndarray) -> np.ndarray:
    """True where a point lies within tol of another robot's disc surface."""
    others = [r for j, r in enumerate(world.robots) if j != observer]
    if not others or len(points) == 0:
        return np.zeros(len(points), dtype=bool)
    centers = np.array([r.position for r in others])
    d = np.abs(disc_signed_distance(points, centers,
                                    [world.config.robot_radius] * len(others)))
    return d.min(axis=1) <= tol


def scan_points(ranges: np.ndarray, pose) -> np.ndarray:
    x, y, heading = pose
    angles = heading + 2.0 * np.pi * np.arange(N_BEAMS) / N_BEAMS
    return np.column_stack([x + ranges * np.cos(angles),
                            y + ranges * np.sin(angles)])


# ---- world state ---------------------------------------------------------------


def snapshot(world):
    return (np.array([r.position for r in world.robots]),
            [r.status.value for r in world.robots])


def check_outcomes(env) -> list[str]:
    """Every robot is in exactly one of the four outcomes, the counts add up
    to the agent count, and the per-robot records agree with the world."""
    problems = []
    statuses = [r.status.value for r in env.world.robots]
    counts = {s: statuses.count(s) for s in STATUSES}
    if sum(counts.values()) != len(env.world.robots):
        problems.append(f"outcomes {statuses} are not exhaustive")
    for i, (s, rec) in enumerate(zip(statuses, env.records)):
        if rec.outcome != s:
            problems.append(f"robot {i}: record says {rec.outcome}, world {s}")
    return problems


def check_clearance(world) -> list[str]:
    """No active robot overlaps another robot or a static obstacle."""
    radius = world.config.robot_radius
    pos = np.array([r.position for r in world.robots])
    active = np.array([r.status.value == "active" for r in world.robots])
    if not active.any():
        return []
    problems = []
    d = disc_signed_distance(pos[active], pos, [radius] * len(pos))
    d[np.arange(active.sum()), np.flatnonzero(active)] = np.inf
    if d.min() - radius < -MOVE_TOL:       # centre closer than 2R
        problems.append(f"active robots overlap robots by "
                        f"{radius - d.min():.3g} m")
    s = static_signed_distance(pos[active], world.config)
    if s.size and s.min() - radius < -MOVE_TOL:
        problems.append(f"active robot overlaps an obstacle by "
                        f"{radius - s.min():.3g} m")
    return problems


def check_motion(before, world) -> list[str]:
    """No robot moves more than V_MAX * dt in one step; robots that were
    frozen before the step do not move at all."""
    pos0, status0 = before
    pos1 = np.array([r.position for r in world.robots])
    moved = np.sqrt(((pos1 - pos0) ** 2).sum(axis=1))
    problems = []
    limit = V_MAX * world.config.dt + MOVE_TOL
    for i, (m, s) in enumerate(zip(moved, status0)):
        if s != "active" and m != 0.0:
            problems.append(f"frozen robot {i} moved {m:.3g} m")
        elif m > limit:
            problems.append(f"robot {i} moved {m:.6f} m > {limit:.6f} m")
    return problems


def check_clean_perception(env) -> list[str]:
    """Without noise, every LiDAR return below max range lies on a true
    surface, and so does every live dynamic track's closest point."""
    world = env.world
    problems = []
    for i, robot in enumerate(world.robots):
        if robot.status.value != "active":
            continue
        scan = env.histories[i].frames[-1]
        if scan.timestamp != world.sim_time:
            problems.append(f"robot {i}: newest scan is from t={scan.timestamp}")
            continue
        pose = (robot.position[0], robot.position[1], robot.heading)
        pts = scan_points(scan.ranges, pose)
        hits = scan.ranges < MAX_RANGE - HIT_MARGIN
        gap = surface_gap(pts[hits], world, i)
        if gap.size and gap.max() > SURFACE_TOL:
            problems.append(f"robot {i}: a return lies {gap.max():.3g} m off "
                            f"every surface")
        tracks = env.trackers[i].dynamic_tracks()
        if tracks:
            closest = np.array([t.closest_point for t in tracks])
            gap = surface_gap(closest, world, i)
            if gap.max() > SURFACE_TOL:
                problems.append(f"robot {i}: a track's closest point lies "
                                f"{gap.max():.3g} m off every surface")
    return problems


def dynamic_track_truth(env, lidar_sigma: float) -> tuple[int, int]:
    """(live dynamic tracks whose closest point lies on another robot's disc,
    all live dynamic tracks), summed over active observers. Under range
    noise a point may sit up to three sigma times its range off the disc."""
    world = env.world
    on_robot = total = 0
    for i, robot in enumerate(world.robots):
        if robot.status.value != "active":
            continue
        tracks = env.trackers[i].dynamic_tracks()
        if not tracks:
            continue
        pts = np.array([t.closest_point for t in tracks])
        rng = np.sqrt(((pts - robot.position) ** 2).sum(axis=1))
        tol = 0.05 + 3.0 * lidar_sigma * rng
        on_robot += int(on_other_robot(pts, world, i, tol).sum())
        total += len(tracks)
    return on_robot, total


# ---- controllers ---------------------------------------------------------------


def check_policy_rows(net, batch_obs, obs_list, raws, live) -> list[str]:
    """Each row of a batched forward pass equals the single-observation
    forward pass, and each robot's command is its row's mean clamped into
    the action box."""
    if not live:
        return []
    mean, std, value = net.forward_batch(batch_obs([obs_list[i] for i in live]))
    problems = []
    for k, i in enumerate(live):
        dist, v = net.forward_one(obs_list[i])
        row = np.concatenate([mean[k], std[k], [value[k]]])
        one = np.concatenate([dist.mean, dist.std, [v]])
        if not np.allclose(row, one, rtol=1e-9, atol=1e-12):
            problems.append(f"robot {i}: batched row {row} != single {one}")
        want = (min(max(float(mean[k][0]), 0.0), V_MAX),
                min(max(float(mean[k][1]), -1.0), 1.0))
        if raws[i] is None or not np.allclose(raws[i], want, rtol=0, atol=1e-12):
            problems.append(f"robot {i}: command {raws[i]} != clamped mean {want}")
    return problems


def check_orca_calls(velocities, n_calls: int) -> list[str]:
    """ORCA ran once per robot that was active when the controller acted,
    and every velocity it returned is finite.

    The norm of a returned velocity is not held to `max_speed`: the
    program's infeasible fallback (`orca._lp3`) can exceed it by rounding
    on some seeds (7e-8 m/s at seed 43, round 1), so a bound on it would
    fail on some seeds and not others. `nh_track` clamps the command to
    V_MAX, and `check_motion` bounds the executed motion exactly."""
    problems = []
    if len(velocities) != n_calls:
        problems.append(f"{len(velocities)} ORCA calls for {n_calls} active robots")
    for v in velocities:
        if not (math.isfinite(float(v[0])) and math.isfinite(float(v[1]))):
            problems.append(f"ORCA velocity {v} is not finite")
    return problems


# ---- global planning -------------------------------------------------------------


def _cell(grid, bounds, p) -> tuple[int, int]:
    return (int(math.floor((p[0] - bounds[0]) / grid.resolution)),
            int(math.floor((p[1] - bounds[1]) / grid.resolution)))


def grid_graph(cells: np.ndarray, resolution: float):
    """Sparse 8-connected graph over the free cells with octile step costs
    (flat index ix * ny + iy)."""
    from scipy.sparse import coo_matrix

    nx, ny = cells.shape
    free = ~cells
    idx = np.arange(nx * ny).reshape(nx, ny)
    rows, cols, weights = [], [], []
    for dx, dy, w in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
        xs = slice(0, nx - dx)
        xd = slice(dx, nx)
        ys = slice(max(-dy, 0), ny - max(dy, 0))
        yd = slice(max(dy, 0), ny - max(-dy, 0))
        ok = free[xs, ys] & free[xd, yd]
        rows.append(idx[xs, ys][ok])
        cols.append(idx[xd, yd][ok])
        weights.append(np.full(int(ok.sum()), w * resolution))
    n = nx * ny
    return coo_matrix((np.concatenate(weights),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()


def check_plans(plans) -> list[str]:
    """Each agent's A* path is a chain of 8-connected moves over free cells
    from its start cell to its goal cell, and its cost equals the shortest
    cost a Dijkstra search finds over the same inflated grid.

    plans: list of (grid, bounds, starts, goals, paths), one per trial."""
    from scipy.sparse.csgraph import dijkstra

    problems = []
    graphs = {}
    for grid, bounds, starts, goals, paths in plans:
        cells = grid.cells
        nx, ny = cells.shape
        res = grid.resolution
        key = (cells.shape, res, cells.tobytes())
        if key not in graphs:
            graphs[key] = grid_graph(cells, res)
        s_cells = [_cell(grid, bounds, s) for s in starts]
        g_cells = [_cell(grid, bounds, g) for g in goals]
        sources = sorted({ix * ny + iy for ix, iy in s_cells})
        dist = dijkstra(graphs[key], directed=False, indices=sources)
        row_of = {s: k for k, s in enumerate(sources)}
        for i, (sc, gc, path) in enumerate(zip(s_cells, g_cells, paths)):
            wp = np.asarray(path.waypoints, dtype=float)
            centers = np.array([bounds[0] + (np.array([sc[0], gc[0]]) + 0.5) * res,
                                bounds[1] + (np.array([sc[1], gc[1]]) + 0.5) * res]).T
            if not (np.allclose(wp[0], centers[0], atol=1e-9)
                    and np.allclose(wp[-1], centers[1], atol=1e-9)):
                problems.append(f"agent {i}: path does not join its start and "
                                f"goal cells")
                continue
            steps = np.sqrt(((wp[1:] - wp[:-1]) ** 2).sum(axis=1))
            straight = np.isclose(steps, res, rtol=0, atol=1e-9)
            diagonal = np.isclose(steps, res * SQRT2, rtol=0, atol=1e-9)
            if not (straight | diagonal).all():
                problems.append(f"agent {i}: path has a step that is not a "
                                f"grid move")
                continue
            ix = np.floor((wp[:, 0] - bounds[0]) / res).astype(int)
            iy = np.floor((wp[:, 1] - bounds[1]) / res).astype(int)
            if cells[ix, iy].any():
                problems.append(f"agent {i}: path crosses an occupied cell")
            cost = res * (straight.sum() + SQRT2 * diagonal.sum())
            best = dist[row_of[sc[0] * ny + sc[1]], gc[0] * ny + gc[1]]
            if not abs(cost - best) <= COST_TOL * max(1.0, best):
                problems.append(f"agent {i}: A* cost {cost:.9f} != Dijkstra "
                                f"{best:.9f}")
    return problems


# ---- training ------------------------------------------------------------------


def decode_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Parameters of a checkpoint file, decoded from its base64 payload."""
    with open(path) as f:
        doc = json.load(f)
    return {name: np.frombuffer(base64.b64decode(spec["data"]),
                                dtype=spec["dtype"]).reshape(spec["shape"])
            for name, spec in doc["params"].items()}


def check_training(result, requested_steps: int, envs: int, load, batch,
                   scratch_path: str) -> list[str]:
    """The requested env steps were taken, every training-curve value is
    finite, and the checkpoint reloads bit-exactly: the loaded parameters
    equal the decoded file, and a save/load round trip gives identical
    parameters and identical forward outputs."""
    problems = []
    with open(result.curve_path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    if not rows:
        return ["training curve is empty"]
    steps = int(float(rows[-1][0]))
    if not requested_steps <= steps < requested_steps + envs:
        problems.append(f"took {steps} env steps, asked for {requested_steps}")
    values = np.array([[float(x) for x in row] for row in rows])
    if not np.isfinite(values).all():
        problems.append("training curve holds a non-finite value")

    net = load(result.checkpoint_path)
    decoded = decode_checkpoint(result.checkpoint_path)
    params = net.named_params()
    if set(decoded) != set(params):
        problems.append("checkpoint and network name different parameters")
    for name, arr in decoded.items():
        if name in params and (params[name].dtype != arr.dtype
                               or params[name].tobytes() != arr.tobytes()):
            problems.append(f"parameter {name} did not reload bit-exactly")
    net.save(scratch_path)
    again = load(scratch_path)
    for a, b in zip(net.forward_batch(batch), again.forward_batch(batch)):
        if a.tobytes() != b.tobytes():
            problems.append("save/load round trip changed the forward outputs")
            break
    return problems
