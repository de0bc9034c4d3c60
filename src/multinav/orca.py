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

Per control step, orca_planes builds the half-planes of every active robot
in one array pass; only the linear program (orca_velocity) runs once per
robot.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import Circle, Wall, wrap_angle
from .sim import Action, V_MAX, W_MAX

EPS = 1e-10


TIME_HORIZON_AGENTS = 5.0       # s, velocity-obstacle horizon for robots
TIME_HORIZON_OBSTACLES = 1.3    # s, and for circles and walls
NEIGHBOR_RANGE = 3.5            # m, obstacles beyond it add no line
EPSILON_TRACKING = 0.1          # m, radius inflation for tracking error
HEADING_GAIN = 2.5              # w = clip(gain * bearing error)


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


# The LP below runs on plain floats, one (p0, p1, d0, d1) row per line, and
# touches no numpy inside its loops. Each 2-vector dot product it reads is
# taken in advance by one batched `_dots` call: p @ d and p @ p of every
# line of every observer in orca_planes; d @ (pref - p) of every line, and
# pref @ pref, in _lp_preferred, once per orca_velocity call; p @ d, p @ p
# and opt @ d of each projected line in _lp3, once per sub-problem. Only
# D[i] @ D[j], for the rare parallel pairs in _lp3, stays a scalar `@`.
# Batched or not, numpy's matmul hands each 2-vector to BLAS's ddot, and
# OpenBLAS's ddot may fuse the multiply-add: it computes
# fma(a1, b1, a0 * b0), so the Python expression `a0 * b0 + a1 * b1` can
# differ from it in the last bit, and Python has no fma before 3.13.
# Crosses, `p + t * d` and the bounds round once per operation either way,
# so they run as Python arithmetic.


def _lp1(rows, pd, pp, obj, line_no, radius, direction_opt):
    """Optimize along line line_no, respecting earlier lines and the speed
    disc. pd and pp hold each line's p @ d and p @ p; obj holds its
    objective dot: opt @ d when direction_opt, else d @ (opt - p). Returns
    the new point or None when infeasible."""
    dot = pd[line_no]
    disc = dot * dot + radius * radius - pp[line_no]
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_left, t_right = -dot - sq, -dot + sq
    p0, p1, d0, d1 = rows[line_no]
    for q0, q1, e0, e1 in rows[:line_no]:
        den = d0 * e1 - d1 * e0
        num = e0 * (p1 - q1) - e1 * (p0 - q0)
        if -EPS <= den <= EPS:
            # a parallel earlier line either holds along all of this one or
            # nowhere on it
            if num < 0.0:
                return None
            continue
        t = num / den
        # `if`s rather than min() and max(): the same choice on every
        # input, ties and NaN included, without two builtin calls per line
        if den >= 0.0:
            if t < t_right:
                t_right = t
        elif t > t_left:
            t_left = t
        if t_left > t_right:
            return None
    if direction_opt:
        t = t_right if obj[line_no] > 0.0 else t_left
    else:
        t = min(max(obj[line_no], t_left), t_right)
    return p0 + t * d0, p1 + t * d1


def _lp2(rows, pd, pp, obj, radius, result, direction_opt):
    """The incremental 2-D program from the start point result, an (r0, r1)
    pair: the objective clipped to the speed disc, or the direction scaled
    to it. rows, pd, pp and obj are as _lp1 reads them. Returns (index of
    the first failing line or len(rows), the (r0, r1) reached)."""
    r0, r1 = result
    for i, (p0, p1, d0, d1) in enumerate(rows):
        if d0 * (p1 - r1) - d1 * (p0 - r0) > 0.0:
            new = _lp1(rows, pd, pp, obj, i, radius, direction_opt)
            if new is None:
                return i, (r0, r1)
            r0, r1 = new
    return len(rows), (r0, r1)


def _lp_preferred(planes, preferred_velocity, radius):
    """_lp2 toward a preferred velocity, from it clipped to the speed disc.
    One batched call takes d @ (pref - p) for every line and pref @ pref,
    which decides the clip. Returns what _lp2 returns."""
    pref = np.asarray(preferred_velocity, dtype=float)
    *obj, pref_sq = _dots(
        np.concatenate([planes.directions, pref[None]]),
        np.concatenate([pref - planes.points, pref[None]])).tolist()
    o0, o1 = pref.tolist()
    if pref_sq > radius * radius:
        norm = math.hypot(o0, o1)
        o0, o1 = o0 / norm * radius, o1 / norm * radius
    return _lp2(planes.rows, planes.pd, planes.pp, obj, radius, (o0, o1),
                False)


def _lp3(planes, begin_line, radius, result):
    """Infeasible fallback: minimize the maximum violation over the agent
    lines while keeping obstacle lines hard. result is the (r0, r1) pair
    the 2-D program reached; returns the pair this one reaches."""
    rows, num_obst_lines, D = planes.rows, planes.num_obst, planes.directions
    r0, r1 = result
    distance = 0.0
    for i in range(begin_line, len(rows)):
        p0, p1, d0, d1 = rows[i]
        if d0 * (p1 - r1) - d1 * (p0 - r0) > distance:
            # each earlier agent line j becomes the bisector of lines i and
            # j; a parallel j pointing the same way adds no constraint
            proj = rows[:num_obst_lines]
            for j, (q0, q1, e0, e1) in enumerate(rows[num_obst_lines:i],
                                                 num_obst_lines):
                den = d0 * e1 - d1 * e0
                if -EPS <= den <= EPS:
                    if float(D[i] @ D[j]) > 0.0:
                        continue
                    x, y = 0.5 * (p0 + q0), 0.5 * (p1 + q1)
                else:
                    t = (e0 * (p1 - q1) - e1 * (p0 - q0)) / den
                    x, y = p0 + t * d0, p1 + t * d1
                u, v = e0 - d0, e1 - d1
                norm = math.hypot(u, v)
                proj.append((x, y, u / norm, v / norm))
            # p @ d, p @ p and opt @ d of every projected line in one call:
            # a stacks (p, p, opt) and b (d, p, d), the objective being the
            # direction opt = (-d1, d0)
            m = len(proj)
            sub = np.array(proj).reshape(m, 2, 2)
            a, b = np.empty((2, 3, m, 2))
            a[0] = a[1] = b[1] = sub[:, 0]
            a[2] = -d1, d0
            b[0] = b[2] = sub[:, 1]
            pd, pp, od = _dots(a, b).tolist()
            fail, new = _lp2(proj, pd, pp, od, radius,
                             (-d1 * radius, d0 * radius), True)
            if fail == m:
                r0, r1 = new
            distance = d0 * (p1 - r1) - d1 * (p0 - r0)
    return r0, r1


class Planes(NamedTuple):
    """One observer's ORCA lines as the LP reads them: points (r, 2) and
    directions (r, 2), the same lines as (p0, p1, d0, d1) float rows, how
    many leading rows are obstacle lines, and each line's p @ d and p @ p
    as float lists."""
    points: np.ndarray
    directions: np.ndarray
    rows: list
    num_obst: int
    pd: list
    pp: list


def orca_planes(positions: np.ndarray, velocities: np.ndarray, radius: float,
                neighbors, circles: list[Circle], walls: list[Wall],
                dt: float = 0.1) -> list[Planes]:
    """The half-planes of k observers, built in one pass.

    positions and velocities are the observers' (k, 2) arrays; neighbors is
    a (positions (k, m, 2), velocities (k, m, 2), radii (k, m)) triple, row
    i holding what observer i sees (ground truth, optionally
    noise-perturbed upstream). Each observer gets its static obstacles
    first, circles then walls, since they stay hard in the infeasible
    fallback, then its neighbours in row order; rows out of range are
    dropped. Boolean masks select in C order, so every observer's lines
    keep that order, on which the LP's result depends.

    Agent pairs are inflated by 2x the tracking error bound (both robots
    deviate from their holonomic tracks); static obstacles are exactly
    mapped and use the raw radius.
    """
    k = len(positions)
    nb_pos, nb_vel, nb_radii = neighbors
    circ = np.array([(c.cx, c.cy, c.r) for c in circles]).reshape(-1, 3)
    box = np.array([w.aabb for w in walls]).reshape(-1, 4)
    # a wall acts as a zero-radius obstacle at its point closest to the
    # observer. np.maximum and np.minimum return their second argument on a
    # tie, as min(max(x, lo), hi) keeps x, so signed zeros match the scalar
    # clamp too
    x, y = positions[:, :1], positions[:, 1:]
    wall_pts = np.stack([np.minimum(box[:, 2], np.maximum(box[:, 0], x)),
                         np.minimum(box[:, 3], np.maximum(box[:, 1], y))],
                        axis=-1)
    n_static = len(circ) + len(box)

    rel_pos = np.concatenate([np.broadcast_to(circ[:, :2], (k, len(circ), 2)),
                              wall_pts, nb_pos], axis=1) - positions[:, None]
    dist_sq = _dots(rel_pos, rel_pos)
    r_other = np.concatenate([np.broadcast_to(circ[:, 2], (k, len(circ))),
                              np.zeros((k, len(box))), nb_radii], axis=1)
    agent = np.arange(r_other.shape[1]) >= n_static
    max_dist = NEIGHBOR_RANGE + np.where(agent, 0.0, r_other)
    near = ~(dist_sq > max_dist ** 2)
    agent = np.broadcast_to(agent, near.shape)[near]
    combined = radius + r_other[near]
    self_vel = np.broadcast_to(velocities[:, None], rel_pos.shape)[near]
    other_vel = np.concatenate([np.zeros((k, n_static, 2)), nb_vel], axis=1)
    points, D = _orca_lines(
        rel_pos[near], self_vel - other_vel[near], dist_sq[near],
        np.where(agent, combined + 2.0 * EPSILON_TRACKING, combined),
        np.where(agent, TIME_HORIZON_AGENTS, TIME_HORIZON_OBSTACLES),
        np.where(agent, 0.5, 1.0), dt)
    P = self_vel + points

    rows = np.hstack([P, D]).tolist()
    n = len(rows)
    dots = _dots(np.concatenate([P, P]), np.concatenate([D, P])).tolist()
    pd, pp = dots[:n], dots[n:]
    ends = np.cumsum(near.sum(axis=1)).tolist()
    planes, start = [], 0
    for end, num_obst in zip(ends, near[:, :n_static].sum(axis=1).tolist()):
        planes.append(Planes(P[start:end], D[start:end], rows[start:end],
                             num_obst, pd[start:end], pp[start:end]))
        start = end
    return planes


def orca_velocity(planes: Planes, preferred_velocity: np.ndarray):
    """Collision-avoiding holonomic velocity closest to the preferred one,
    for one observer's half-planes from orca_planes. Returns (velocity,
    feasible) where feasible is False when the 3-D fallback had to relax
    agent constraints."""
    fail, result = _lp_preferred(planes, preferred_velocity, V_MAX)
    if fail == len(planes.rows):
        return np.array(result), True
    r0, r1 = _lp3(planes, fail, V_MAX, result)
    # nearly parallel agent lines give _lp3 far-off projected lines, on
    # which _lp1's disc test cancels and can land outside the disc
    speed = math.hypot(r0, r1)
    if speed > V_MAX:
        scale = V_MAX / speed
        r0, r1 = r0 * scale, r1 * scale
    return np.array([r0, r1]), False


def nh_track(desired: np.ndarray, heading: float) -> Action:
    """Map a holonomic velocity to (v, w) for a differential-drive robot
    facing heading (a World.headings entry, or RobotState.heading).

    Turn rate proportional to the bearing error, forward speed scaled by its
    cosine (zero when the target direction is behind), so the executed arc
    stays within the tracking error bound the radii were inflated by.
    """
    speed = math.hypot(*desired)
    if speed < 1e-9:
        return Action(0.0, 0.0)
    alpha = wrap_angle(math.atan2(desired[1], desired[0]) - heading)
    w = min(max(HEADING_GAIN * alpha, -W_MAX), W_MAX)
    v = min(max(speed * math.cos(alpha), 0.0), V_MAX)
    return Action(v, w)


def preferred_velocity(position: np.ndarray, target: np.ndarray,
                       goal_distance: float) -> np.ndarray:
    """Full speed toward the target, slowing inside one meter of the goal.

    The target is usually a running point just ahead on the global path;
    goal_distance is the distance to the actual goal, so the slow-down keys
    on it instead of the perpetually-near target (math.inf never slows).
    """
    to_target = np.asarray(target, dtype=float) - position
    dist = math.hypot(*to_target)
    if dist < 1e-9:
        return np.zeros(2)
    speed = V_MAX * min(goal_distance, 1.0)
    return to_target / dist * speed
