"""Occupancy-grid rasterization, A* global planning over the static map and
the running-target-point lookahead.

Global paths deliberately ignore other robots: the grid holds static
obstacles only, inflated by the robot radius, so a planned path is feasible
for the disc robot if nothing else moves. The running target is the waypoint
a fixed number of indices ahead of the agent's nearest point on its path.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import obstacle_surface_distance
from .sim import WorldConfig

SQRT2 = math.sqrt(2.0)


class InvalidEndpoint(ValueError):
    pass


class Unreachable(ValueError):
    pass


class EmptyPath(ValueError):
    pass


@dataclass
class OccupancyGrid:
    resolution: float
    origin: tuple[float, float]          # world coords of cell (0, 0) corner
    cells: np.ndarray                    # (nx, ny) bool, True = occupied
    inflation_radius: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor((x - self.origin[0]) / self.resolution)),
                int(math.floor((y - self.origin[1]) / self.resolution)))

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        return (self.origin[0] + (ix + 0.5) * self.resolution,
                self.origin[1] + (iy + 0.5) * self.resolution)

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.cells.shape[0] and 0 <= iy < self.cells.shape[1]

    def occupied(self, x: float, y: float) -> bool:
        """Occupancy at a world point; out-of-grid counts as occupied."""
        ix, iy = self.world_to_cell(x, y)
        if not self.in_bounds(ix, iy):
            return True
        return bool(self.cells[ix, iy])

    def occupied_near(self, x: float, y: float, margin: float) -> bool:
        """True if any occupied cell center lies within margin of the point."""
        r = int(math.ceil(margin / self.resolution))
        cx, cy = self.world_to_cell(x, y)
        for ix in range(max(cx - r, 0), min(cx + r + 1, self.cells.shape[0])):
            for iy in range(max(cy - r, 0), min(cy + r + 1, self.cells.shape[1])):
                if self.cells[ix, iy]:
                    px, py = self.cell_center(ix, iy)
                    if math.hypot(px - x, py - y) <= margin:
                        return True
        return False

    def occupied_near_points(self, points: np.ndarray, margin: float) -> np.ndarray:
        """occupied_near for every row of an (n, 2) array of points at once."""
        r = int(math.ceil(margin / self.resolution))
        offsets = np.arange(-r, r + 1)
        x, y = points[:, 0, None, None], points[:, 1, None, None]
        cx = np.floor((x - self.origin[0]) / self.resolution).astype(int)
        cy = np.floor((y - self.origin[1]) / self.resolution).astype(int)
        # (n, w, w) cell indices of each point's window
        ix, iy = np.broadcast_arrays(cx + offsets[:, None], cy + offsets)
        nx, ny = self.cells.shape
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        occupied = np.zeros(ix.shape, dtype=bool)
        occupied[inside] = self.cells[ix[inside], iy[inside]]
        dx = self.origin[0] + (ix + 0.5) * self.resolution - x
        dy = self.origin[1] + (iy + 0.5) * self.resolution - y
        dist = np.hypot(dx, dy)
        near = dist <= margin
        # np.hypot and math.hypot may round one ulp apart: settle the
        # near-ties the way occupied_near does
        for k in np.flatnonzero(np.abs(dist - margin) <= 2 * np.spacing(margin)):
            near.flat[k] = math.hypot(dx.flat[k], dy.flat[k]) <= margin
        return (occupied & near).any(axis=(1, 2))


def rasterize(config: WorldConfig, resolution: float = 0.1) -> OccupancyGrid:
    """Boolean grid over the world bounds, obstacles inflated by the robot
    radius. Other agents are never rasterized."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    xmin, ymin, xmax, ymax = config.bounds
    nx = max(int(math.ceil((xmax - xmin) / resolution)), 1)
    ny = max(int(math.ceil((ymax - ymin) / resolution)), 1)
    xs = xmin + (np.arange(nx) + 0.5) * resolution
    ys = ymin + (np.arange(ny) + 0.5) * resolution
    pts = np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])
    if config.circles or config.walls:
        d = obstacle_surface_distance(pts, config.circles, config.walls)
        cells = (d <= config.robot_radius).reshape(nx, ny)
    else:
        cells = np.zeros((nx, ny), dtype=bool)
    return OccupancyGrid(resolution=resolution, origin=(xmin, ymin),
                         cells=cells, inflation_radius=config.robot_radius)


@dataclass
class GlobalPath:
    waypoints: np.ndarray                # (n, 2) metric positions
    cumulative_length: np.ndarray        # (n,) meters, 0 at the first waypoint

    @property
    def length(self) -> float:
        return float(self.cumulative_length[-1])

    @classmethod
    def from_waypoints(cls, waypoints: np.ndarray) -> "GlobalPath":
        wp = np.asarray(waypoints, dtype=float)
        seg = np.hypot(*(wp[1:] - wp[:-1]).T) if len(wp) > 1 else np.zeros(0)
        return cls(waypoints=wp, cumulative_length=np.concatenate([[0.0], np.cumsum(seg)]))


# 8-connected moves with octile step costs (unit grid, scaled by resolution)
_MOVES = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]


def astar(grid: OccupancyGrid, start: tuple[float, float],
          goal: tuple[float, float]) -> GlobalPath:
    """8-connected A* with Euclidean heuristic and octile step costs.

    Start and goal are metric points snapped to their cells; the returned
    path runs through cell centers. Cost is optimal (ties broken
    deterministically by insertion order).
    """
    s = grid.world_to_cell(*start)
    g = grid.world_to_cell(*goal)
    for name, c in (("start", s), ("goal", g)):
        if not grid.in_bounds(*c) or grid.cells[c]:
            raise InvalidEndpoint(f"{name} cell {c} is occupied or out of bounds")
    if s == g:
        return GlobalPath.from_waypoints([grid.cell_center(*s)])

    # Cells are flat indices into the grid padded with one ring of occupied
    # cells: padded cell (ix + 1, iy + 1) is index (ix + 1) * w + iy + 1, so
    # a move is an index offset and needs no bounds test.
    res = grid.resolution
    nx, ny = grid.cells.shape
    w = ny + 2
    padded = np.ones((nx + 2, w), dtype=bool)
    padded[1:-1, 1:-1] = grid.cells
    blocked = padded.tobytes()
    moves = [(dx * w + dy, step * res) for dx, dy, step in _MOVES]
    # cell-center coordinates per padded row and column, the same
    # arithmetic as OccupancyGrid.cell_center
    ox, oy = grid.origin
    xs = [ox + (ix + 0.5) * res for ix in range(-1, nx + 1)]
    ys = [oy + (iy + 0.5) * res for iy in range(-1, ny + 1)]
    gx, gy = grid.cell_center(*g)
    src = (s[0] + 1) * w + s[1] + 1
    dst = (g[0] + 1) * w + g[1] + 1

    inf = math.inf
    hypot, heappush, heappop = math.hypot, heapq.heappush, heapq.heappop
    dist = [inf] * len(blocked)
    dist[src] = 0.0
    parent = [-1] * len(blocked)
    closed = bytearray(len(blocked))
    counter = 0
    open_heap = [(hypot(xs[src // w] - gx, ys[src % w] - gy), counter, src)]
    while open_heap:
        cur = heappop(open_heap)[2]
        if closed[cur]:
            continue
        if cur == dst:
            break
        closed[cur] = 1
        base = dist[cur]
        for offset, cost in moves:
            v = cur + offset
            if blocked[v]:
                continue
            nd = base + cost
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = cur
                counter += 1
                heappush(open_heap,
                         (nd + hypot(xs[v // w] - gx, ys[v % w] - gy), counter, v))
    if dist[dst] == inf:
        raise Unreachable(f"no path from {s} to {g}")

    chain = [dst]
    while chain[-1] != src:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return GlobalPath.from_waypoints([(xs[c // w], ys[c % w]) for c in chain])


def path_cost_counts(path: GlobalPath, resolution: float) -> tuple[int, int]:
    """Decompose a grid path into (straight, diagonal) step counts.

    Lets two planners be compared for exactly equal cost without float
    summation-order effects."""
    straight = diagonal = 0
    wp = path.waypoints
    for a, b in zip(wp[:-1], wp[1:]):
        step = np.hypot(*(b - a))
        if abs(step - resolution) < 1e-9:
            straight += 1
        else:
            diagonal += 1
    return straight, diagonal


@dataclass
class TargetPoint:
    position: np.ndarray
    path_direction: float                # world-frame tangent angle at index
    index: int


def running_target(path: GlobalPath, agent_pos: np.ndarray, horizon: int) -> TargetPoint:
    """Waypoint `horizon` indices ahead of the agent's nearest path point.

    Nearest index by Euclidean distance (lowest index wins ties), advanced by
    the horizon and clamped to the last index. The direction is the tangent
    of the segment starting at the returned index (last segment at the end).
    """
    if path.waypoints.size == 0:
        raise EmptyPath("global path has no waypoints")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    wp = path.waypoints
    d = np.hypot(wp[:, 0] - agent_pos[0], wp[:, 1] - agent_pos[1])
    idx = min(int(np.argmin(d)) + horizon, len(wp) - 1)
    if len(wp) == 1:
        direction = 0.0
    elif idx == len(wp) - 1:
        seg = wp[-1] - wp[-2]
        direction = math.atan2(seg[1], seg[0])
    else:
        seg = wp[idx + 1] - wp[idx]
        direction = math.atan2(seg[1], seg[0])
    return TargetPoint(position=wp[idx].copy(), path_direction=direction, index=idx)


def save_pgm(grid: OccupancyGrid, path: str) -> None:
    """Debug export: binary PGM (255 = free, 0 = occupied) plus a JSON
    metadata sidecar."""
    img = np.where(grid.cells.T[::-1], 0, 255).astype(np.uint8)  # rows top-down
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())
    meta = {
        "resolution": grid.resolution,
        "origin": list(grid.origin),
        "shape": list(grid.shape),
        "inflation_radius": grid.inflation_radius,
    }
    with open(path + ".json", "w") as f:
        json.dump(meta, f, sort_keys=True)
