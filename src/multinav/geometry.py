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

    Returns an (n_rays, n_circles) array of t values, np.inf where a ray
    misses. Rays starting inside a circle report t = 0.
    """
    if len(centers) == 0:
        return np.full((len(dirs), 0), np.inf)
    oc = origin[None, :] - centers  # (m, 2)
    b = dirs @ oc.T                 # (n, m): dot(d, o - c)
    c0 = np.einsum("ij,ij->i", oc, oc) - radii ** 2  # (m,)
    disc = b * b - c0[None, :]
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near >= 0.0, t_near, np.where(t_far >= 0.0, 0.0, np.inf))
    return np.where(hit, t, np.inf)


def ray_aabbs(origin: np.ndarray, dirs: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Nearest non-negative hit parameter of each unit ray against each AABB.

    boxes is (m, 4) rows of (xmin, ymin, xmax, ymax). Slab method; rays
    starting inside a box report t = 0.
    """
    if len(boxes) == 0:
        return np.full((len(dirs), 0), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs  # (n, 2), inf where a component is 0
        t1 = (boxes[None, :, 0] - origin[0]) * inv[:, None, 0]
        t2 = (boxes[None, :, 2] - origin[0]) * inv[:, None, 0]
        t3 = (boxes[None, :, 1] - origin[1]) * inv[:, None, 1]
        t4 = (boxes[None, :, 3] - origin[1]) * inv[:, None, 1]
    # 0 * inf from a zero direction component sitting exactly on a slab edge
    for t in (t1, t2, t3, t4):
        np.nan_to_num(t, copy=False, nan=np.inf)
    txmin = np.minimum(t1, t2)
    txmax = np.maximum(t1, t2)
    # a zero component never enters its slab unless origin is inside it
    zero_x = dirs[:, 0] == 0.0
    inside_x = (origin[0] >= boxes[None, :, 0]) & (origin[0] <= boxes[None, :, 2])
    txmin = np.where(zero_x[:, None], np.where(inside_x, -np.inf, np.inf), txmin)
    txmax = np.where(zero_x[:, None], np.where(inside_x, np.inf, -np.inf), txmax)
    tymin = np.minimum(t3, t4)
    tymax = np.maximum(t3, t4)
    zero_y = dirs[:, 1] == 0.0
    inside_y = (origin[1] >= boxes[None, :, 1]) & (origin[1] <= boxes[None, :, 3])
    tymin = np.where(zero_y[:, None], np.where(inside_y, -np.inf, np.inf), tymin)
    tymax = np.where(zero_y[:, None], np.where(inside_y, np.inf, -np.inf), tymax)

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
