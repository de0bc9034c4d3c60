"""Simulated 360-degree 2D LiDAR.

120 beams, body-fixed: beam 0 points along the robot heading, indices run
counter-clockwise. Beams hit static obstacles and the other robots' disc
surfaces; non-hits report max_range (3.5 m). Multiplicative Gaussian range
noise of relative sigma LIDAR_SIGMA models the sensor error. All live robots
sense in one raycast_batch and one noisy_ranges call per step; raycast and
apply_lidar_noise scan one. A disc whose center lies beyond max_range plus
its radius, or a wall box farther than max_range, cannot return a range, so
raycast_batch solves no beam against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import circle_roots, ray_aabbs
from .sim import World

N_BEAMS = 120
MAX_RANGE = 3.5
RANGE_EPS = 1e-9
LIDAR_SIGMA = 0.035             # relative range noise of the noise protocol
# a disc is in range when its center lies within MAX_RANGE + r + this, a
# wall box when it lies within MAX_RANGE + this; the slack dwarfs the
# rounding of the squared-distance tests and of the hit parameters
CULL_SLACK = 1e-6
BEAM_OFFSETS = 2.0 * np.pi * np.arange(N_BEAMS) / N_BEAMS


@dataclass
class LidarScan:
    ranges: np.ndarray            # (120,) meters, each in (0, max_range]
    timestamp: float
    max_range = MAX_RANGE         # a class constant, not a field


def raycast_batch(world: World, observers: list[int]) -> np.ndarray:
    """One scan from each listed robot's center, as a (k, 120) range array.

    Each beam returns the nearest surface intersection with any static
    obstacle or any other robot's disc, frozen robots included, clipped to
    max_range. The sensing robot never hits itself. Beams are solved only
    against the discs and wall boxes in range of their observer. Each disc
    product still keeps the width one robot's scan gives it (the other
    robots, the static circles): OpenBLAS rounds one column (gemv) unlike
    several (gemm).
    """
    pos, cfg = world.positions, world.config
    n = len(pos)
    t = np.full((len(observers), N_BEAMS), np.inf)
    if n > 1 or cfg.circles or cfg.walls:
        origins = pos[observers]
        angles = world.headings[observers][:, None] + BEAM_OFFSETS
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        if n > 1:
            # row k's columns: every robot but observer k, in index order
            cols = np.arange(n - 1)
            cols = cols + (cols >= np.array(observers)[:, None])
            t = np.minimum(t, _disc_ranges(
                origins, dirs, pos[cols], np.full(cols.shape, cfg.robot_radius)))
        if cfg.circles:
            centers = np.array([[c.cx, c.cy] for c in cfg.circles])
            radii = np.array([c.r for c in cfg.circles])
            t = np.minimum(t, _disc_ranges(origins, dirs, centers, radii))
        if cfg.walls:
            boxes = np.array([w.aabb for w in cfg.walls])
            # each observer's gap to each box, 0 along an axis it lies within
            gap = np.maximum(np.maximum(boxes[:, :2] - origins[:, None],
                                        origins[:, None] - boxes[:, 2:]), 0.0)
            row, col = np.nonzero((gap * gap).sum(axis=-1)
                                  <= (MAX_RANGE + CULL_SLACK) ** 2)
            # the slab test is elementwise: one box per in-range pair
            t = np.minimum(t, _min_per_row(row, ray_aabbs(
                origins[row], dirs[row], boxes[col, None])[..., 0], len(t)))
    return np.clip(t, RANGE_EPS, MAX_RANGE)


def _disc_ranges(origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """(k, 120) nearest hit of each observer's beams on its discs, np.inf
    where none lies in range. centers (k, m, 2) or (m, 2) and radii (k, m)
    or (m,) broadcast against the k origins. The (k, 120, m) product of
    beams and discs is kept whole; the roots and the min run only on the
    observer-disc pairs in range: a farther disc's hits lie beyond
    MAX_RANGE, where the clip puts its beams anyway."""
    oc = origins[:, None, :] - centers                  # (k, m, 2)
    b = dirs @ np.swapaxes(oc, -1, -2)                  # (k, 120, m)
    d2 = np.einsum("...ij,...ij->...i", oc, oc)         # (k, m)
    c0 = d2 - radii ** 2
    row, col = np.nonzero(d2 <= (MAX_RANGE + radii + CULL_SLACK) ** 2)
    return _min_per_row(row, circle_roots(b[row, :, col], c0[row, col, None]),
                        len(origins))


def _min_per_row(row: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """(k, 120) beamwise min of the (p, 120) rows of t, grouped by their
    observer row[i] (sorted, as np.nonzero gives it); np.inf for an
    observer without rows."""
    out = np.full((k, N_BEAMS), np.inf)
    if len(row):
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        out[row[first]] = np.minimum.reduceat(t, first, axis=0)
    return out


def raycast(world: World, agent_index: int) -> LidarScan:
    """Scan the world from one robot's center: raycast_batch on one row."""
    return LidarScan(ranges=raycast_batch(world, [agent_index])[0],
                     timestamp=world.sim_time)


def noisy_ranges(ranges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Perturb each returned range r to r * (1 + eps), eps ~ Normal(0,
    LIDAR_SIGMA), then re-clip into (0, max_range]. Beams without a return
    stay at exactly max_range; every beam still draws its eps, in row-major
    order, so a (k, 120) array draws what k scans in turn would."""
    noisy = ranges * (1.0 + rng.normal(0.0, LIDAR_SIGMA, size=ranges.shape))
    noisy = np.clip(noisy, RANGE_EPS, MAX_RANGE)
    noisy[ranges >= MAX_RANGE] = MAX_RANGE
    return noisy


def apply_lidar_noise(scan: LidarScan, rng: np.random.Generator) -> LidarScan:
    """noisy_ranges on one scan."""
    return LidarScan(ranges=noisy_ranges(scan.ranges, rng),
                     timestamp=scan.timestamp)


@dataclass
class ScanHistory:
    """The last three scans, oldest first. Seeded with replicas of the first
    scan so the stack is full from step one."""

    frames: list[LidarScan] = field(default_factory=list)

    def push(self, scan: LidarScan) -> None:
        if not self.frames:
            self.frames = [scan, scan, scan]
        else:
            self.frames = [self.frames[1], self.frames[2], scan]

    @property
    def stacked(self) -> np.ndarray:
        """(3, 120) range matrix, oldest row first."""
        return np.stack([f.ranges for f in self.frames])

    def __len__(self) -> int:
        return len(self.frames)
