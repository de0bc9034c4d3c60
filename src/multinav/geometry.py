"""Planar geometry primitives and ray/distance kernels shared by the simulator,
the LiDAR model and the occupancy-grid planner.

Obstacles are circles and axis-aligned thick wall segments (rectangles). All
ray kernels are vectorized over beams x primitives and return hit parameters
along unit ray directions, with np.inf for misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = a % TWO_PI
    if r > math.pi:
        r -= TWO_PI
    return r


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])


@dataclass(frozen=True)
class Wall:
    """Axis-aligned thick segment. The occupied region is the segment dilated
    by thickness/2 across its axis."""

    x0: float
    y0: float
    x1: float
    y1: float
    thickness: float = 0.1

    def __post_init__(self):
        if not (self.x0 == self.x1 or self.y0 == self.y1):
            raise ValueError("walls must be axis-aligned")
        if self.thickness <= 0:
            raise ValueError("wall thickness must be positive")

    @property
    def aabb(self) -> tuple[float, float, float, float]:
        h = self.thickness / 2.0
        xmin, xmax = min(self.x0, self.x1), max(self.x0, self.x1)
        ymin, ymax = min(self.y0, self.y1), max(self.y0, self.y1)
        if self.y0 == self.y1:  # horizontal run, dilate in y
            return (xmin, ymin - h, xmax, ymax + h)
        return (xmin - h, ymin, xmax + h, ymax)


def ray_circles(origin: np.ndarray, dirs: np.ndarray, centers: np.ndarray,
                radii: np.ndarray) -> np.ndarray:
    """Nearest non-negative hit parameter of each unit ray against each circle.

    origin (..., 2), dirs (..., n, 2), centers (..., m, 2) and radii (..., m)
    broadcast over their leading axes. Returns (..., n, m) t values, np.inf
    where a ray misses. Rays starting inside a circle report t = 0.
    """
    oc = origin[..., None, :] - centers                     # (..., m, 2)
    b = dirs @ np.swapaxes(oc, -1, -2)      # (..., n, m): dot(d, o - c)
    c0 = np.einsum("...ij,...ij->...i", oc, oc) - radii ** 2  # (..., m)
    disc = b * b - c0[..., None, :]
    hit = disc >= 0.0
    t = np.full(disc.shape, np.inf)
    b, sq = b[hit], np.sqrt(disc[hit])       # the rays that meet a circle
    t_near = -b - sq
    t_far = -b + sq
    t[hit] = np.where(t_near >= 0.0, t_near,
                      np.where(t_far >= 0.0, 0.0, np.inf))
    return t


def ray_aabbs(origin: np.ndarray, dirs: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Nearest non-negative hit parameter of each unit ray against each AABB.

    origin (..., 2) and dirs (..., n, 2) broadcast over their leading axes;
    boxes is (m, 4) rows of (xmin, ymin, xmax, ymax). Returns (..., n, m).
    Slab method, elementwise; rays starting inside a box report t = 0.
    """
    ox, oy = origin[..., 0, None, None], origin[..., 1, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs[..., None, :]  # (..., n, 1, 2), inf where 0
        t1 = (boxes[:, 0] - ox) * inv[..., 0]
        t2 = (boxes[:, 2] - ox) * inv[..., 0]
        t3 = (boxes[:, 1] - oy) * inv[..., 1]
        t4 = (boxes[:, 3] - oy) * inv[..., 1]
    # 0 * inf from a zero direction component sitting exactly on a slab edge
    for t in (t1, t2, t3, t4):
        np.nan_to_num(t, copy=False, nan=np.inf)
    txmin = np.minimum(t1, t2)
    txmax = np.maximum(t1, t2)
    # a zero component never enters its slab unless origin is inside it
    zero_x = dirs[..., 0, None] == 0.0
    inside_x = (ox >= boxes[:, 0]) & (ox <= boxes[:, 2])
    txmin = np.where(zero_x, np.where(inside_x, -np.inf, np.inf), txmin)
    txmax = np.where(zero_x, np.where(inside_x, np.inf, -np.inf), txmax)
    tymin = np.minimum(t3, t4)
    tymax = np.maximum(t3, t4)
    zero_y = dirs[..., 1, None] == 0.0
    inside_y = (oy >= boxes[:, 1]) & (oy <= boxes[:, 3])
    tymin = np.where(zero_y, np.where(inside_y, -np.inf, np.inf), tymin)
    tymax = np.where(zero_y, np.where(inside_y, np.inf, -np.inf), tymax)

    tmin = np.maximum(txmin, tymin)
    tmax = np.minimum(txmax, tymax)
    hit = (tmax >= tmin) & (tmax >= 0.0)
    t = np.where(tmin >= 0.0, tmin, 0.0)
    return np.where(hit, t, np.inf)


def dist_circle_surface(points: np.ndarray, circle: Circle) -> np.ndarray:
    """Signed distance from points (n, 2) to a circle's surface (< 0 inside)."""
    pts = np.atleast_2d(points)
    return np.hypot(pts[:, 0] - circle.cx, pts[:, 1] - circle.cy) - circle.r


def dist_aabb_surface(points: np.ndarray, box: tuple[float, float, float, float]) -> np.ndarray:
    """Signed distance from points (n, 2) to an AABB's surface (< 0 inside)."""
    pts = np.atleast_2d(points)
    xmin, ymin, xmax, ymax = box
    dx = np.maximum(xmin - pts[:, 0], pts[:, 0] - xmax)
    dy = np.maximum(ymin - pts[:, 1], pts[:, 1] - ymax)
    outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    inside = np.minimum(np.maximum(dx, dy), 0.0)
    return outside + inside


def obstacle_surface_distance(points: np.ndarray, circles: list[Circle],
                              walls: list[Wall]) -> np.ndarray:
    """Minimum signed surface distance from each point to any static obstacle."""
    pts = np.atleast_2d(points)
    d = np.full(len(pts), np.inf)
    for c in circles:
        d = np.minimum(d, dist_circle_surface(pts, c))
    for w in walls:
        d = np.minimum(d, dist_aabb_surface(pts, w.aabb))
    return d
