"""Simulated 360-degree 2D LiDAR.

120 beams, body-fixed: beam 0 points along the robot heading, indices run
counter-clockwise. Beams hit static obstacles and the other robots' disc
surfaces; non-hits report max_range (3.5 m). Multiplicative Gaussian range
noise models the sensor error.
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


def raycast(world: World, agent_index: int) -> LidarScan:
    """Scan the world from one robot's center.

    Each beam returns the nearest surface intersection with any static
    obstacle or any other robot's disc, clipped to max_range. The sensing
    robot never hits itself.
    """
    me = world.robots[agent_index]
    origin = me.position
    angles = me.heading + BEAM_OFFSETS
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])

    t = np.full(N_BEAMS, np.inf)
    others = [r for i, r in enumerate(world.robots) if i != agent_index]
    if others:
        centers = np.array([r.position for r in others])
        radii = np.array([r.radius for r in others])
        t = np.minimum(t, ray_circles(origin, dirs, centers, radii).min(axis=1))
    circles = world.config.circles
    if circles:
        centers = np.array([[c.cx, c.cy] for c in circles])
        radii = np.array([c.r for c in circles])
        t = np.minimum(t, ray_circles(origin, dirs, centers, radii).min(axis=1))
    walls = world.config.walls
    if walls:
        boxes = np.array([w.aabb for w in walls])
        t = np.minimum(t, ray_aabbs(origin, dirs, boxes).min(axis=1))

    ranges = np.clip(t, RANGE_EPS, MAX_RANGE)
    return LidarScan(ranges=ranges, timestamp=world.sim_time)


def apply_lidar_noise(scan: LidarScan, rng: np.random.Generator,
                      sigma: float = 0.035) -> LidarScan:
    """Perturb each returned range r to r * (1 + eps), eps ~ Normal(0, sigma),
    then re-clip into (0, max_range]. Beams without a return stay at exactly
    max_range; every beam still draws its eps."""
    if sigma == 0.0:
        return scan
    noisy = scan.ranges * (1.0 + rng.normal(0.0, sigma, size=scan.ranges.shape))
    noisy = np.clip(noisy, RANGE_EPS, scan.max_range)
    noisy[scan.ranges >= scan.max_range] = scan.max_range
    return LidarScan(ranges=noisy, timestamp=scan.timestamp, max_range=scan.max_range)


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
