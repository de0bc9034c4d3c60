"""Reciprocal collision avoidance for nonholonomic disc robots.

Each neighbor induces a half-plane of permitted velocities derived from the
truncated velocity obstacle; the agent takes half the avoidance effort for
reciprocating neighbors and the full effort for static obstacles. The
feasible velocity closest to a preferred velocity is found by a randomized-
order-free incremental 2-D linear program over the disc of reachable
speeds; when the constraints are jointly infeasible a 3-D program minimizes
the worst violation while keeping obstacle constraints hard. A tracking law
maps the chosen holonomic velocity onto (v, w) commands; the disc radius is
inflated by the tracking error bound so the guarantee survives the
nonholonomic execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Circle, Wall, wrap_angle
from .sim import Action, RobotState, V_MAX, W_MAX

EPS = 1e-10


@dataclass
class OrcaConfig:
    time_horizon_agents: float = 5.0
    time_horizon_obstacles: float = 1.3
    neighbor_range: float = 3.5
    max_speed: float = V_MAX
    epsilon_tracking: float = 0.1     # radius inflation for tracking error
    heading_gain: float = 2.5         # w = clip(gain * bearing error)

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if isinstance(v, (int, float)) and v <= 0:
                raise ValueError(f"{name} must be positive")


def _cross(a, b):
    """z component of a x b, row-wise: positive when b points left of a."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _dots(a, b):
    """Row-wise dot products. Batched matmul runs each row through the same
    BLAS ddot as `a[k] @ b[k]`, which can differ in the last bit from
    `a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]` because ddot may fuse the
    multiply-add."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _orca_lines(rel_pos, rel_vel, dist_sq, combined_radius, tau,
                responsibility, dt):
    """One half-plane per row, RVO-style: permitted velocity changes lie on
    the left of the directed line (point, direction).

    rel_pos (n, 2) points from self to each obstacle or neighbor, rel_vel
    (n, 2) is v_self - v_other and dist_sq is rel_pos . rel_pos; the other
    arguments hold one value per row. Rows project on the cut-off circle or
    the nearer leg of the truncated cone; already-penetrating pairs use a
    one-timestep horizon so the constraint pushes the agents apart. Returns
    (points, directions), the points scaled by each row's responsibility.
    """
    r_sq = combined_radius * combined_radius
    coll = ~(dist_sq > r_sq)
    inv_dt = 1.0 / dt
    w = rel_vel - np.where(coll[:, None], rel_pos * inv_dt,
                           rel_pos / tau[:, None])
    w_len_sq = _dots(w, w)
    dot1 = _dots(w, rel_pos)
    leg = ~(coll | ((dot1 < 0.0) & (dot1 * dot1 > r_sq * w_len_sq)))

    # cut-off circle, or the collision circle
    w_len = np.sqrt(w_len_sq)
    if coll.any():
        w_len[coll] = [math.hypot(x, y) for x, y in w[coll].tolist()]
    degenerate = coll & (w_len <= EPS)
    unit_w = w / np.where(leg | degenerate, 1.0, w_len)[:, None]
    unit_w[degenerate] = (1.0, 0.0)
    reach = np.where(coll, combined_radius * inv_dt, combined_radius / tau)
    u = (reach - w_len)[:, None] * unit_w
    direction = unit_w[:, ::-1] * (1.0, -1.0)

    # nearer leg of the cone: (x l - y r, y l + x r) / |p|^2 on the left,
    # -(x l + y r, y l - x r) / |p|^2 on the right, l the leg length
    if leg.any():
        along = rel_pos[leg] * np.sqrt(dist_sq[leg] - r_sq[leg])[:, None]
        across = rel_pos[leg, ::-1] * combined_radius[leg, None]
        left = (_cross(rel_pos[leg], w[leg]) > 0.0)[:, None]
        d = np.where(left, along + across * (-1.0, 1.0),
                     -(along + across * (1.0, -1.0))) / dist_sq[leg, None]
        v = rel_vel[leg]
        direction[leg] = d
        u[leg] = _dots(v, d)[:, None] * d - v
    return responsibility[:, None] * u, direction


# The LP below runs on plain floats, one (p0, p1, d0, d1) row per line, but
# takes each 2-vector dot product (p @ d, p @ p, opt @ d, d @ (opt - p),
# opt @ opt and, for parallel lines in _lp3, D[i] @ D[j]) as a numpy `@`:
# OpenBLAS's ddot may fuse the multiply-add, so `a0 * b0 + a1 * b1` can
# differ from it in the last bit. Crosses, `p + t * d` and the bounds round
# once per operation either way.


def _lp1(P, D, rows, line_no, radius, opt_velocity, direction_opt):
    """Optimize along line line_no, respecting earlier lines and the speed
    disc. Returns the new point or None when infeasible."""
    p, d = P[line_no], D[line_no]
    dot = float(p @ d)
    disc = dot * dot + radius * radius - float(p @ p)
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_left, t_right = -dot - sq, -dot + sq
    p0, p1, d0, d1 = rows[line_no]
    for q0, q1, e0, e1 in rows[:line_no]:
        den = d0 * e1 - d1 * e0
        num = e0 * (p1 - q1) - e1 * (p0 - q0)
        if abs(den) <= EPS:
            # a parallel earlier line either holds along all of this one or
            # nowhere on it
            if num < 0.0:
                return None
            continue
        t = num / den
        if den >= 0.0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
            return None
    if direction_opt:
        t = t_right if float(opt_velocity @ d) > 0.0 else t_left
    else:
        t = min(max(float(d @ (opt_velocity - p)), t_left), t_right)
    return p0 + t * d0, p1 + t * d1


def _lp2(P, D, radius, opt_velocity, direction_opt, rows=None):
    """Feasible velocity closest to opt_velocity inside the speed disc.
    rows holds the lines' (p0, p1, d0, d1) floats when the caller built
    them. Returns (index of first failing line or len(P), result)."""
    o0, o1 = opt_velocity.tolist()
    if direction_opt:
        r0, r1 = o0 * radius, o1 * radius
    elif float(opt_velocity @ opt_velocity) > radius * radius:
        norm = math.hypot(o0, o1)
        r0, r1 = o0 / norm * radius, o1 / norm * radius
    else:
        r0, r1 = o0, o1
    if rows is None:
        rows = np.hstack([P, D]).tolist()
    for i, (p0, p1, d0, d1) in enumerate(rows):
        if d0 * (p1 - r1) - d1 * (p0 - r0) > 0.0:
            new = _lp1(P, D, rows, i, radius, opt_velocity, direction_opt)
            if new is None:
                return i, np.array([r0, r1])
            r0, r1 = new
    return len(rows), np.array([r0, r1])


def _lp3(P, D, num_obst_lines, begin_line, radius, result):
    """Infeasible fallback: minimize the maximum violation over the agent
    lines while keeping obstacle lines hard."""
    rows = np.hstack([P, D]).tolist()
    r0, r1 = result.tolist()
    distance = 0.0
    for i in range(begin_line, len(rows)):
        p0, p1, d0, d1 = rows[i]
        if d0 * (p1 - r1) - d1 * (p0 - r0) > distance:
            # each earlier agent line j becomes the bisector of lines i and
            # j; a parallel j pointing the same way adds no constraint
            proj = rows[:num_obst_lines]
            for j in range(num_obst_lines, i):
                q0, q1, e0, e1 = rows[j]
                den = d0 * e1 - d1 * e0
                if abs(den) <= EPS:
                    if float(D[i] @ D[j]) > 0.0:
                        continue
                    x, y = 0.5 * (p0 + q0), 0.5 * (p1 + q1)
                else:
                    t = (e0 * (p1 - q1) - e1 * (p0 - q0)) / den
                    x, y = p0 + t * d0, p1 + t * d1
                u, v = e0 - d0, e1 - d1
                norm = math.hypot(u, v)
                proj.append((x, y, u / norm, v / norm))
            sub = np.array(proj).reshape(-1, 4)
            fail, new = _lp2(sub[:, :2], sub[:, 2:], radius,
                             np.array([-d1, d0]), True, proj)
            if fail == len(proj):
                r0, r1 = new.tolist()
            distance = d0 * (p1 - r1) - d1 * (p0 - r0)
    return np.array([r0, r1])


def orca_velocity(self_pos: np.ndarray, self_vel: np.ndarray, radius: float,
                  neighbors, circles: list[Circle], walls: list[Wall],
                  preferred_velocity: np.ndarray, cfg: OrcaConfig,
                  dt: float = 0.1):
    """Collision-avoiding holonomic velocity closest to the preferred one.

    neighbors is a (positions (k, 2), velocities (k, 2), radii (k,)) triple
    of arrays (the baseline sees ground-truth neighbor states, optionally
    noise-perturbed upstream). Returns (velocity, feasible) where feasible
    is False when the 3-D fallback had to relax agent constraints.

    Agent pairs are inflated by 2x the tracking error bound (both robots
    deviate from their holonomic tracks); static obstacles are exactly
    mapped and use the raw radius.
    """
    # static obstacles first: they stay hard in the infeasible fallback.
    # A wall acts as a zero-radius obstacle at its point closest to self.
    x, y = self_pos
    statics = [(c.cx, c.cy, c.r) for c in circles]
    for w in walls:
        xmin, ymin, xmax, ymax = w.aabb
        statics.append((min(max(x, xmin), xmax), min(max(y, ymin), ymax),
                        0.0))
    statics = np.array(statics).reshape(-1, 3)
    positions, velocities, radii = neighbors
    n_static = len(statics)

    rel_pos = np.concatenate([statics[:, :2], positions]) - self_pos
    dist_sq = _dots(rel_pos, rel_pos)
    r_other = np.concatenate([statics[:, 2], radii])
    agent = np.arange(len(r_other)) >= n_static
    max_dist = cfg.neighbor_range + np.where(agent, 0.0, r_other)
    near = ~(dist_sq > max_dist ** 2)
    agent, combined = agent[near], radius + r_other[near]
    points, D = _orca_lines(
        rel_pos[near],
        self_vel - np.concatenate([np.zeros((n_static, 2)), velocities])[near],
        dist_sq[near],
        np.where(agent, combined + 2.0 * cfg.epsilon_tracking, combined),
        np.where(agent, cfg.time_horizon_agents, cfg.time_horizon_obstacles),
        np.where(agent, 0.5, 1.0), dt)
    P = self_vel + points
    num_obst = int(near[:n_static].sum())

    fail, result = _lp2(P, D, cfg.max_speed,
                        np.asarray(preferred_velocity, dtype=float), False)
    if fail < len(P):
        result = _lp3(P, D, num_obst, fail, cfg.max_speed, result)
        # nearly parallel agent lines give _lp3 far-off projected lines, on
        # which _lp1's disc test cancels and can land outside the disc
        speed = math.hypot(*result)
        if speed > cfg.max_speed:
            result = result * (cfg.max_speed / speed)
        return result, False
    return result, True


def nh_track(desired: np.ndarray, state: RobotState,
             cfg: OrcaConfig | None = None) -> Action:
    """Map a holonomic velocity to (v, w) for a differential-drive robot.

    Turn rate proportional to the bearing error, forward speed scaled by its
    cosine (zero when the target direction is behind), so the executed arc
    stays within the tracking error bound the radii were inflated by.
    """
    cfg = cfg or OrcaConfig()
    speed = math.hypot(*desired)
    if speed < 1e-9:
        return Action(0.0, 0.0)
    alpha = wrap_angle(math.atan2(desired[1], desired[0]) - state.heading)
    w = min(max(cfg.heading_gain * alpha, -W_MAX), W_MAX)
    v = min(max(speed * math.cos(alpha), 0.0), V_MAX)
    return Action(v, w)


def preferred_velocity(position: np.ndarray, target: np.ndarray,
                       max_speed: float = V_MAX,
                       goal_distance: float | None = None) -> np.ndarray:
    """Full speed toward the target, slowing inside one meter of the goal.

    The target is usually a running point just ahead on the global path;
    pass goal_distance so the slow-down keys on the actual goal instead of
    the perpetually-near target.
    """
    to_target = np.asarray(target, dtype=float) - position
    dist = math.hypot(*to_target)
    if dist < 1e-9:
        return np.zeros(2)
    brake = dist if goal_distance is None else goal_distance
    speed = max_speed * min(brake, 1.0)
    return to_target / dist * speed
