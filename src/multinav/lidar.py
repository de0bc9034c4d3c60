"""Simulated 360-degree 2D LiDAR.

120 beams, body-fixed: beam 0 points along the robot heading, indices run
counter-clockwise. Beams hit static obstacles and the other robots' disc
surfaces; non-hits report max_range (3.5 m). Multiplicative Gaussian range
noise models the sensor error. All live robots sense in one raycast_batch
and one noisy_ranges call per step; raycast and apply_lidar_noise scan one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ray_aabbs, ray_circles
from .sim import World

N_BEAMS = 120
MAX_RANGE = 3.5
RANGE_EPS = 1e-9
BEAM_OFFSETS = 2.0 * np.pi * np.arange(N_BEAMS) / N_BEAMS


@dataclass
class LidarScan:
    ranges: np.ndarray            # (120,) meters, each in (0, max_range]
    timestamp: float
    max_range: float = MAX_RANGE


def raycast_batch(world: World, observers: list[int]) -> np.ndarray:
    """One scan from each listed robot's center, as a (k, 120) range array.

    Each beam returns the nearest surface intersection with any static
    obstacle or any other robot's disc, frozen robots included, clipped to
    max_range. The sensing robot never hits itself. Each disc product keeps
    the width one robot's scan gives it (the other robots, the static
    circles): OpenBLAS rounds one column (gemv) unlike several (gemm).
    """
    robots, cfg = world.robots, world.config
    t = np.full((len(observers), N_BEAMS), np.inf)
    if len(robots) > 1 or cfg.circles or cfg.walls:
        pos = np.array([r.position for r in robots])
        origins = pos[observers]
        headings = np.array([robots[i].heading for i in observers])
        angles = headings[:, None] + BEAM_OFFSETS
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        if len(robots) > 1:
            # row k's columns: every robot but observer k, in index order
            cols = np.arange(len(robots) - 1)
            cols = cols + (cols >= np.array(observers)[:, None])
            radii = np.array([r.radius for r in robots])
            t = np.minimum(t, ray_circles(origins, dirs, pos[cols],
                                          radii[cols]).min(axis=-1))
        if cfg.circles:
            centers = np.array([[c.cx, c.cy] for c in cfg.circles])
            radii = np.array([c.r for c in cfg.circles])
            t = np.minimum(t, ray_circles(origins, dirs, centers,
                                          radii).min(axis=-1))
        if cfg.walls:
            boxes = np.array([w.aabb for w in cfg.walls])
            t = np.minimum(t, ray_aabbs(origins, dirs, boxes).min(axis=-1))
    return np.clip(t, RANGE_EPS, MAX_RANGE)


def raycast(world: World, agent_index: int) -> LidarScan:
    """Scan the world from one robot's center: raycast_batch on one row."""
    return LidarScan(ranges=raycast_batch(world, [agent_index])[0],
                     timestamp=world.sim_time)


def noisy_ranges(ranges: np.ndarray, rng: np.random.Generator,
                 sigma: float) -> np.ndarray:
    """Perturb each returned range r to r * (1 + eps), eps ~ Normal(0, sigma),
    then re-clip into (0, max_range]. Beams without a return stay at exactly
    max_range; every beam still draws its eps, in row-major order, so a
    (k, 120) array draws what k scans in turn would."""
    noisy = ranges * (1.0 + rng.normal(0.0, sigma, size=ranges.shape))
    noisy = np.clip(noisy, RANGE_EPS, MAX_RANGE)
    noisy[ranges >= MAX_RANGE] = MAX_RANGE
    return noisy


def apply_lidar_noise(scan: LidarScan, rng: np.random.Generator,
                      sigma: float = 0.035) -> LidarScan:
    """noisy_ranges on one scan; sigma = 0 returns the scan itself."""
    if sigma == 0.0:
        return scan
    return LidarScan(ranges=noisy_ranges(scan.ranges, rng, sigma),
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
