import collections
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from multinav import bench, orca
from multinav.geometry import Circle, Wall
from multinav.observations import NoiseConfig
from multinav.orca import (EPS, Planes, _cross, _dots, _lp3, _lp_preferred,
                           _orca_lines, nh_track, orca_planes, orca_velocity,
                           preferred_velocity)
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import Kind, eval_suite, generate
from multinav.sim import V_MAX

NO_NEIGHBORS = (np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
DATA = os.path.join(os.path.dirname(__file__), "data")


def neighbors(*states):
    """(positions, velocities, radii) arrays from (position, velocity,
    radius) triples."""
    return (np.array([s[0] for s in states], dtype=float).reshape(-1, 2),
            np.array([s[1] for s in states], dtype=float).reshape(-1, 2),
            np.array([s[2] for s in states], dtype=float))


def lp_planes(P, D, num_obst=0):
    """Planes for the lines (P, D), their p @ d and p @ p taken in one
    batched call as orca_planes takes them."""
    n = len(P)
    dots = _dots(np.concatenate([P, P]), np.concatenate([D, P])).tolist()
    return Planes(P, D, np.hstack([P, D]).tolist(), num_obst, dots[:n],
                  dots[n:])


def lp2(P, D, radius, pref):
    """The 2-D program toward pref as orca_velocity runs it: (index of the
    first failing line or len(P), velocity array)."""
    fail, v = _lp_preferred(lp_planes(P, D), pref, radius)
    return fail, np.array(v)


def lp3(P, D, num_obst, begin_line, radius, result):
    """The 3-D fallback from the velocity array result, as an array."""
    return np.array(_lp3(lp_planes(P, D, num_obst), begin_line, radius,
                         result.tolist()))


def reference_planes(self_pos, self_vel, radius, neighbors, circles, walls,
                     dt=0.1):
    """One observer's half-planes as orca_velocity built them per robot
    before orca_planes built them for all observers at once, kept as the
    byte-exact reference: (points, directions, number of obstacle lines)."""
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
    max_dist = orca.NEIGHBOR_RANGE + np.where(agent, 0.0, r_other)
    near = ~(dist_sq > max_dist ** 2)
    agent, combined = agent[near], radius + r_other[near]
    points, D = _orca_lines(
        rel_pos[near],
        self_vel - np.concatenate([np.zeros((n_static, 2)), velocities])[near],
        dist_sq[near],
        np.where(agent, combined + 2.0 * orca.EPSILON_TRACKING, combined),
        np.where(agent, orca.TIME_HORIZON_AGENTS, orca.TIME_HORIZON_OBSTACLES),
        np.where(agent, 0.5, 1.0), dt)
    return self_vel + points, D, int(near[:n_static].sum())


def orca_one(self_pos, self_vel, radius, neighbors, circles, walls,
             preferred, dt=0.1):
    """orca_velocity for one robot, its half-planes built as a batch of one
    observer."""
    planes, = orca_planes(self_pos[None], self_vel[None], radius,
                          tuple(x[None] for x in neighbors), circles, walls,
                          dt)
    return orca_velocity(planes, preferred)


# ---- scalar reference: one HalfPlane per neighbor, one line at a time --------


@dataclass
class HalfPlane:
    """Directed line: permitted velocities lie on the left of (point,
    direction)."""
    point: np.ndarray
    direction: np.ndarray


def _det(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _ref_halfplane(rel_pos, rel_vel, combined_radius, tau, dt, responsibility):
    """Half-plane for one neighbor, RVO-style, and the branch that built it.

    rel_pos points from self to the neighbor; rel_vel is v_self - v_other.
    Already-penetrating pairs use a one-timestep horizon so the constraint
    pushes the agents apart.
    """
    dist_sq = float(rel_pos @ rel_pos)
    r_sq = combined_radius * combined_radius
    if dist_sq > r_sq:
        w = rel_vel - rel_pos / tau
        w_len_sq = float(w @ w)
        dot1 = float(w @ rel_pos)
        if dot1 < 0.0 and dot1 * dot1 > r_sq * w_len_sq:
            # project on the cut-off circle
            w_len = math.sqrt(w_len_sq)
            unit_w = w / w_len
            direction = np.array([unit_w[1], -unit_w[0]])
            u = (combined_radius / tau - w_len) * unit_w
            branch = "cut-off"
        else:
            # project on the nearer leg of the cone
            leg = math.sqrt(dist_sq - r_sq)
            if _det(rel_pos, w) > 0.0:
                direction = np.array([rel_pos[0] * leg - rel_pos[1] * combined_radius,
                                      rel_pos[0] * combined_radius + rel_pos[1] * leg]) / dist_sq
                branch = "left leg"
            else:
                direction = -np.array([rel_pos[0] * leg + rel_pos[1] * combined_radius,
                                       -rel_pos[0] * combined_radius + rel_pos[1] * leg]) / dist_sq
                branch = "right leg"
            u = float(rel_vel @ direction) * direction - rel_vel
    else:
        # collision: push apart over a single timestep
        inv_dt = 1.0 / dt
        w = rel_vel - rel_pos * inv_dt
        w_len = math.hypot(*w)
        unit_w = w / w_len if w_len > EPS else np.array([1.0, 0.0])
        direction = np.array([unit_w[1], -unit_w[0]])
        u = (combined_radius * inv_dt - w_len) * unit_w
        branch = "collision"
    return HalfPlane(point=responsibility * u, direction=direction), branch


def _ref_lp1(lines, line_no, radius, opt_velocity, direction_opt):
    p, d = lines[line_no].point, lines[line_no].direction
    dot = float(p @ d)
    disc = dot * dot + radius * radius - float(p @ p)
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_left, t_right = -dot - sq, -dot + sq
    for i in range(line_no):
        den = _det(d, lines[i].direction)
        num = _det(lines[i].direction, p - lines[i].point)
        if abs(den) <= EPS:
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
    return p + t * d


def _ref_lp2(lines, radius, opt_velocity, direction_opt):
    if direction_opt:
        result = opt_velocity * radius
    elif float(opt_velocity @ opt_velocity) > radius * radius:
        result = opt_velocity / math.hypot(*opt_velocity) * radius
    else:
        result = opt_velocity.copy()
    for i, line in enumerate(lines):
        if _det(line.direction, line.point - result) > 0.0:
            new = _ref_lp1(lines, i, radius, opt_velocity, direction_opt)
            if new is None:
                return i, result
            result = new
    return len(lines), result


def _ref_lp3(lines, num_obst_lines, begin_line, radius, result):
    distance = 0.0
    for i in range(begin_line, len(lines)):
        if _det(lines[i].direction, lines[i].point - result) > distance:
            proj = list(lines[:num_obst_lines])
            for j in range(num_obst_lines, i):
                den = _det(lines[i].direction, lines[j].direction)
                if abs(den) <= EPS:
                    if float(lines[i].direction @ lines[j].direction) > 0.0:
                        continue
                    point = 0.5 * (lines[i].point + lines[j].point)
                else:
                    t = _det(lines[j].direction,
                             lines[i].point - lines[j].point) / den
                    point = lines[i].point + t * lines[i].direction
                direction = lines[j].direction - lines[i].direction
                direction = direction / math.hypot(*direction)
                proj.append(HalfPlane(point, direction))
            opt = np.array([-lines[i].direction[1], lines[i].direction[0]])
            fail, new = _ref_lp2(proj, radius, opt, True)
            if fail == len(proj):
                result = new
            distance = _det(lines[i].direction, lines[i].point - result)
    return result


def reference_orca_velocity(self_pos, self_vel, radius, neighbor_arrays,
                            circles, walls, preferred_velocity, dt=0.1,
                            branches=None):
    """The scalar ORCA the array code replaced, kept as its byte-exact
    reference, plus the program's speed-disc guard on the fallback. Appends
    the branch of every half-plane to `branches`."""
    lines: list[HalfPlane] = []

    # static obstacles first: they stay hard in the infeasible fallback
    statics = []
    for c in circles:
        statics.append((np.array([c.cx, c.cy]), c.r, "circle"))
    for w in walls:
        xmin, ymin, xmax, ymax = w.aabb
        q = np.array([min(max(self_pos[0], xmin), xmax),
                      min(max(self_pos[1], ymin), ymax)])
        statics.append((q, 0.0, "wall"))
    for q, r_obs, kind in statics:
        rel_pos = np.asarray(q, dtype=float) - self_pos
        if float(rel_pos @ rel_pos) > (orca.NEIGHBOR_RANGE + r_obs) ** 2:
            continue
        hp, branch = _ref_halfplane(rel_pos, self_vel, radius + r_obs,
                                    orca.TIME_HORIZON_OBSTACLES, dt,
                                    responsibility=1.0)
        lines.append(HalfPlane(self_vel + hp.point, hp.direction))
        if branches is not None:
            branches.append(f"{kind} {branch}")
    num_obst = len(lines)

    for pos, vel, r_other in zip(*neighbor_arrays):
        rel_pos = np.asarray(pos, dtype=float) - self_pos
        if float(rel_pos @ rel_pos) > orca.NEIGHBOR_RANGE ** 2:
            continue
        rel_vel = self_vel - np.asarray(vel, dtype=float)
        hp, branch = _ref_halfplane(
            rel_pos, rel_vel, radius + r_other + 2.0 * orca.EPSILON_TRACKING,
            orca.TIME_HORIZON_AGENTS, dt, responsibility=0.5)
        lines.append(HalfPlane(self_vel + hp.point, hp.direction))
        if branches is not None:
            branches.append(branch)

    fail, result = _ref_lp2(lines, V_MAX,
                            np.asarray(preferred_velocity, dtype=float), False)
    if fail < len(lines):
        result = _ref_lp3(lines, num_obst, fail, V_MAX, result)
        # the program's guard against _lp1's rounding on nearly parallel
        # lines: back onto the speed disc
        speed = math.hypot(*result)
        if speed > V_MAX:
            result = result * (V_MAX / speed)
        return result, False
    return result, True


def random_orca_call(rng):
    """One seeded orca_velocity input: a robot among 0-13 neighbors at
    0.3-4 m (so some overlap it), 0-2 circles and 0-2 walls."""
    def around(center, lo, hi, n):
        a = rng.uniform(0.0, 2.0 * math.pi, n)
        d = rng.uniform(lo, hi, n)
        return center + np.column_stack([d * np.cos(a), d * np.sin(a)])

    def disc_velocity(n, speed=1.0):
        return around(np.zeros(2), 0.0, speed, n)

    self_pos = rng.uniform(-1.0, 1.0, 2)
    k = int(rng.integers(0, 14))
    nb = (around(self_pos, 0.3, 4.0, k), disc_velocity(k),
          rng.uniform(0.2, 0.3, k))
    circles = [Circle(*c, r) for c, r in zip(around(self_pos, 0.4, 3.5,
                                                    int(rng.integers(0, 3))),
                                             rng.uniform(0.2, 0.8, 3))]
    walls = []
    for c in around(self_pos, 0.3, 3.0, int(rng.integers(0, 3))):
        half = rng.uniform(0.3, 2.0)
        if rng.random() < 0.5:
            walls.append(Wall(c[0] - half, c[1], c[0] + half, c[1], 0.2))
        else:
            walls.append(Wall(c[0], c[1] - half, c[0], c[1] + half, 0.2))
    pref = disc_velocity(1, 1.2)[0]
    return self_pos, disc_velocity(1)[0], 0.25, nb, circles, walls, pref


def violation(P, D, v):
    """Signed distance by which v lies right of each line (> 0 violates)."""
    return D[:, 0] * (P[:, 1] - v[1]) - D[:, 1] * (P[:, 0] - v[0])


def minimax_violation(P, D, n_obst, radius, levels=40, res=81):
    """Oracle for the 3-D fallback: the least worst violation of the agent
    lines (rows from n_obst on) over the speed disc with the obstacle lines
    held, by grid search over that set, refined around the best cell.

    The worst violation is convex and 1-Lipschitz, so a cell of size h
    misses the minimum over the set's grid points by at most h; each level
    keeps a window of several cells around the best point."""
    center = np.zeros(2)
    span = radius
    best = math.inf
    for _ in range(levels):
        xs = np.linspace(center[0] - span, center[0] + span, res)
        ys = np.linspace(center[1] - span, center[1] + span, res)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        feas = (pts ** 2).sum(axis=1) <= radius * radius
        for point, direction in zip(P[:n_obst], D[:n_obst]):
            feas &= (direction[0] * (point[1] - pts[:, 1])
                     - direction[1] * (point[0] - pts[:, 0])) <= 0.0
        worst = np.full(len(pts), -np.inf)
        for point, direction in zip(P[n_obst:], D[n_obst:]):
            worst = np.maximum(worst, direction[0] * (point[1] - pts[:, 1])
                               - direction[1] * (point[0] - pts[:, 0]))
        worst[~feas] = np.inf
        k = int(np.argmin(worst))
        if worst[k] < best:
            best, center = float(worst[k]), pts[k]
        span *= 0.6
    return best


def grid_search_lp(P, D, radius, pref, levels=14, res=121):
    """Oracle: dense grid search over the feasible disc, refined around the
    best cell. Independent of the incremental LP.

    The zoom window accounts for the flat valley along an active constraint:
    with cell size h and distance D to the preferred velocity, the argmin
    cell can sit ~sqrt(2 D h) sideways of the true optimum, so the next
    window must cover that tangential uncertainty, not just one cell.
    """
    center = np.zeros(2)
    span = radius
    best = None
    for level in range(levels):
        xs = np.linspace(center[0] - span, center[0] + span, res)
        ys = np.linspace(center[1] - span, center[1] + span, res)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        feas = (pts ** 2).sum(axis=1) <= radius * radius
        for point, direction in zip(P, D):
            rel = point[None, :] - pts
            feas &= (direction[0] * rel[:, 1]
                     - direction[1] * rel[:, 0]) <= 1e-12
        if not feas.any():
            return None
        d = np.hypot(*(pts - pref).T)
        d[~feas] = np.inf
        best = pts[int(np.argmin(d))]
        center = best
        cell = 2.0 * span / (res - 1)
        dist = max(float(np.hypot(*(best - pref))), 0.05)
        span = 2.0 * math.sqrt(2.0 * dist * cell) + 4.0 * cell

    # compass-search polish: the isotropic grid stalls in the flat valley
    # along an active constraint, and the cone of improving feasible
    # directions there is ~(target error / distance) radians wide, so the
    # direction fan must be dense
    angles = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    fan = np.column_stack([np.cos(angles), np.sin(angles)])

    def best_step(p, step):
        cand = p[None, :] + step * fan
        feas = (cand ** 2).sum(axis=1) <= radius * radius + 1e-15
        for point, direction in zip(P, D):
            feas &= (direction[0] * (point[1] - cand[:, 1])
                     - direction[1] * (point[0] - cand[:, 0])) <= 1e-12
        if not feas.any():
            return None
        d = np.hypot(*(cand - pref).T)
        d[~feas] = np.inf
        k = int(np.argmin(d))
        return cand[k], float(d[k])

    obj = float(np.hypot(*(best - pref)))
    step = max(span, 1e-4)
    while step > 1e-9:
        found = best_step(best, step)
        if found is not None and found[1] < obj - 1e-15:
            best, obj = found
        else:
            step *= 0.5
    return best


class TestLinearProgram:
    def test_no_constraints_returns_pref(self):
        fail, v = lp2(np.zeros((0, 2)), np.zeros((0, 2)), 1.0,
                      np.array([0.3, -0.2]))
        assert fail == 0
        assert np.allclose(v, [0.3, -0.2])

    def test_pref_clipped_to_disc(self):
        fail, v = lp2(np.zeros((0, 2)), np.zeros((0, 2)), 1.0,
                      np.array([3.0, 4.0]))
        assert np.hypot(*v) == pytest.approx(1.0)
        assert np.allclose(v, [0.6, 0.8])

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 60:
            n = rng.integers(1, 7)
            P = np.array([rng.uniform(-0.4, 0.4, 2) for _ in range(n)])
            D = np.array([(math.cos(a), math.sin(a)) for a in
                          (rng.uniform(0, 2 * math.pi) for _ in range(n))])
            pref = rng.uniform(-1, 1, 2)
            oracle = grid_search_lp(P, D, 1.0, pref)
            fail, v = lp2(P, D, 1.0, pref)
            if fail < n or oracle is None:
                continue  # infeasible sets checked separately
            # guard against razor-thin regions the grid cannot resolve
            margin = float(_cross(D, P - oracle).min())
            if margin > -0.02:
                continue
            assert np.hypot(*(v - oracle)) < 1e-3
            checked += 1

    def test_fallback_minimizes_worst_agent_violation(self):
        # obstacle lines through the speed disc that leave the origin free,
        # then agent lines until the set is infeasible
        rng = np.random.default_rng(107)
        checked = 0
        while checked < 12:
            n_obst = int(rng.integers(1, 3))
            n = n_obst + int(rng.integers(2, 7))
            a = rng.uniform(0.0, 2.0 * math.pi, n)
            D = np.column_stack([np.cos(a), np.sin(a)])
            offset = np.where(np.arange(n) < n_obst, rng.uniform(0.1, 0.6, n),
                              rng.uniform(-0.9, 0.1, n))
            P = offset[:, None] * np.column_stack([D[:, 1], -D[:, 0]])
            fail, v = lp2(P, D, 1.0, rng.uniform(-1.0, 1.0, 2))
            if fail == n or fail < n_obst:
                continue
            v = lp3(P, D, n_obst, fail, 1.0, v)
            oracle = minimax_violation(P, D, n_obst, 1.0)
            assert np.isfinite(v).all()
            assert math.hypot(*v) <= 1.0 + 1e-12
            assert (violation(P[:n_obst], D[:n_obst], v) <= 1e-12).all()
            worst = violation(P[n_obst:], D[n_obst:], v).max()
            assert worst > 0.0
            assert abs(worst - oracle) <= 1e-6
            checked += 1


def rotated_lines(rows, angle):
    """(P, D) arrays from (px, py, dx, dy) rows, turned by angle about the
    origin, and the same lines as reference HalfPlanes."""
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, s], [-s, c]])
    A = np.array(rows, dtype=float)
    P, D = A[:, :2] @ turn, A[:, 2:] @ turn
    return P, D, [HalfPlane(p, d) for p, d in zip(P, D)]


def turned(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


class TestParallelLines:
    """Constructed line sets for the parallel branches, which the random
    calls of test_matches_scalar_reference_bytes never reach, against the
    scalar reference byte for byte. Each set is turned by several angles,
    and one line of it tilted by 1e-12 rad, so |det| is 0, rounding-small
    or 1e-12, all within EPS."""

    ANGLES = (0.0, 0.3, 1.9, -2.6)

    def lp2(self, rows, pref, angle):
        P, D, lines = rotated_lines(rows, angle)
        opt = turned(pref, angle)
        fail, got = lp2(P, D, 1.0, opt)
        want_fail, want = _ref_lp2(lines, 1.0, opt, False)
        assert fail == want_fail
        assert got.tobytes() == want.tobytes()
        return P, D, lines, fail, got

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("tilt", (0.0, 1e-12))
    def test_lp1_earlier_parallel_line_feasible_side(self, angle, tilt):
        # y >= -0.5, then the parallel y >= 0.3 holds on all of the first
        rows = [(0.0, -0.5, 1.0, 0.0),
                (0.0, 0.3, math.cos(tilt), math.sin(tilt))]
        _, _, _, fail, v = self.lp2(rows, np.array([0.2, -0.8]), angle)
        assert fail == 2
        assert np.allclose(v, turned((0.2, 0.3), angle))

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("tilt", (0.0, 1e-12))
    def test_lp1_earlier_parallel_line_infeasible_side(self, angle, tilt):
        # y >= 0.3, then the anti-parallel y <= 0 lies wholly outside it
        rows = [(0.0, 0.3, 1.0, 0.0),
                (0.0, 0.0, -math.cos(tilt), math.sin(tilt))]
        _, _, _, fail, v = self.lp2(rows, np.array([0.2, -0.8]), angle)
        assert fail == 1
        assert np.allclose(v, turned((0.2, 0.3), angle))

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("tilt", (0.0, 1e-12))
    @pytest.mark.parametrize("n_obst", (0, 1))
    def test_lp3_parallel_agent_lines(self, angle, tilt, n_obst):
        # agent lines y >= 0.5, y <= 0 and y <= -0.2: line 1 projects line 0
        # to the midline y >= 0.25; line 2 projects line 0 to y >= 0.15 and
        # skips line 1, which points the same way. The optional obstacle
        # line x <= 0.9 stays hard throughout.
        obstacle = [(0.9, 0.0, 0.0, 1.0)][:n_obst]
        rows = obstacle + [(0.0, 0.5, 1.0, 0.0), (0.0, 0.0, -1.0, 0.0),
                           (0.0, -0.2, -math.cos(tilt), -math.sin(tilt))]
        P, D, lines, fail, v = self.lp2(rows, np.array([0.2, -0.8]), angle)
        assert fail == n_obst + 1
        got = lp3(P, D, n_obst, fail, 1.0, v)
        want = _ref_lp3(lines, n_obst, fail, 1.0, v)
        assert got.tobytes() == want.tobytes()
        # on the midline y = 0.15, at either end of its feasible chord: the
        # direction objective is perpendicular to it, so rounding picks one
        x, y = turned(got, -angle)
        half = math.sqrt(1.0 - 0.15 ** 2)
        assert y == pytest.approx(0.15)
        assert x in (pytest.approx(-half),
                     pytest.approx(0.9 if n_obst else half))


class TestOrcaVelocity:
    def test_no_neighbors_returns_pref(self):
        v, feasible = orca_one(np.zeros(2), np.zeros(2), 0.25, NO_NEIGHBORS,
                               [], [], np.array([0.4, 0.1]))
        assert feasible
        assert np.allclose(v, [0.4, 0.1])

    def test_symmetric_head_on_mirror(self):
        pa, pb = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        va, vb = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        out_a, _ = orca_one(pa, va, 0.25, neighbors((pb, vb, 0.25)),
                            [], [], np.array([1.0, 0.0]))
        out_b, _ = orca_one(pb, vb, 0.25, neighbors((pa, va, 0.25)),
                            [], [], np.array([-1.0, 0.0]))
        assert out_a[1] == pytest.approx(-out_b[1], abs=1e-9)
        assert abs(out_a[1]) > 1e-6  # actually dodging sideways

    def test_wall_constraint_blocks_through_traffic(self):
        wall = Wall(1.0, -2.0, 1.0, 2.0, 0.2)
        v, _ = orca_one(np.zeros(2), np.array([1.0, 0.0]), 0.25,
                        NO_NEIGHBORS, [], [wall], np.array([1.0, 0.0]))
        # 0.65 m of clearance shrinking at 1.3 s horizon: must slow down
        assert v[0] < 1.0

    def test_two_agent_feasible_guarantee(self, monkeypatch):
        # executing both outputs for one horizon keeps surfaces separated
        monkeypatch.setattr(orca, "TIME_HORIZON_AGENTS", 3.0)
        rng = np.random.default_rng(103)
        radius = 0.25
        combined = 2 * radius
        checked = 0
        while checked < 80:
            pa = rng.uniform(-2, 2, 2)
            pb = rng.uniform(-2, 2, 2)
            if np.hypot(*(pb - pa)) < combined + 2 * orca.EPSILON_TRACKING + 0.05:
                continue
            va = rng.uniform(-1, 1, 2) * 0.7
            vb = rng.uniform(-1, 1, 2) * 0.7
            prefa = rng.uniform(-1, 1, 2)
            prefb = rng.uniform(-1, 1, 2)
            out_a, fa = orca_one(pa, va, radius,
                                 neighbors((pb, vb, radius)), [], [], prefa)
            out_b, fb = orca_one(pb, vb, radius,
                                 neighbors((pa, va, radius)), [], [], prefb)
            if not (fa and fb):
                continue
            t = np.linspace(0.0, orca.TIME_HORIZON_AGENTS, 400)
            rel0 = pb - pa
            relv = out_b - out_a
            d = np.hypot(*(rel0[:, None] + relv[:, None] * t[None, :]))
            assert d.min() >= combined - 1e-9
            checked += 1

    def test_matches_scalar_reference_bytes(self):
        rng = np.random.default_rng(109)
        branches = collections.Counter()
        fallbacks = 0
        for _ in range(2500):
            call = random_orca_call(rng)
            seen = []
            want, want_ok = reference_orca_velocity(*call, branches=seen)
            got, ok = orca_one(*call)
            assert got.tobytes() == want.tobytes()
            assert ok == want_ok
            branches.update(seen)
            fallbacks += not ok
        assert fallbacks >= 500
        for branch in ("collision", "cut-off", "left leg", "right leg",
                       "circle cut-off", "circle left leg",
                       "circle right leg", "wall left leg", "wall right leg"):
            assert branches[branch] > 0, branch

    def test_recorded_fallback_stays_within_speed_bound(self):
        # nearly parallel agent lines in _lp3 once returned a velocity of
        # norm 1.00000007 here
        with open(os.path.join(DATA, "orca_speed_bound.json")) as f:
            doc = json.load(f)

        def arr(key, *shape):
            return np.array([float.fromhex(x) for x in doc[key]]).reshape(shape)

        call = (arr("self_pos", 2), arr("self_vel", 2),
                float.fromhex(doc["radius"]),
                (arr("neighbor_positions", -1, 2),
                 arr("neighbor_velocities", -1, 2), arr("neighbor_radii", -1)),
                [], [], arr("preferred_velocity", 2), float.fromhex(doc["dt"]))
        v, feasible = orca_one(*call)
        assert not feasible
        assert math.hypot(*v) <= V_MAX + 1e-12
        # the near-parallel lines are where a reordered float expression
        # would show first
        want, want_feasible = reference_orca_velocity(*call)
        assert v.tobytes() == want.tobytes()
        assert feasible == want_feasible


class TestDenseCrowd:
    """OrcaController on noisy circle-40, where all forty robots meet at the
    centre, against the scalar reference byte for byte. random_orca_call
    gives at most ~17 lines and short fallbacks; here calls carry 30+ lines
    and fallbacks solve several sub-problems, which is where a reordered
    float expression in the LP would show."""

    WARMUP, CHECKED = 70, 30    # the crowd forms from about step 70

    def test_controller_matches_reference(self, monkeypatch):
        spec = eval_suite(Kind.CIRCLE, 40, rng_seed=5)
        env = NavEnv(spec, EnvConfig(noise=NoiseConfig(),
                                     build_observations=False), seed=5)
        obs = env.reset(generate(spec))
        controller = bench.OrcaController()
        for _ in range(self.WARMUP):
            env.step(controller.act(env, obs))

        # record every step's orca_planes inputs and, per robot, its
        # orca_velocity call and how many _lp2 runs that call made
        steps, lp2_runs = [], [0]
        program_lp2 = orca._lp2

        def counted_lp2(*args):
            lp2_runs[0] += 1
            return program_lp2(*args)

        def spy_planes(*args, **kwargs):
            steps.append((args, kwargs, []))
            return orca_planes(*args, **kwargs)

        def spy_velocity(planes, pref):
            lp2_runs[0] = 0
            result = orca_velocity(planes, pref)
            steps[-1][2].append((len(planes.rows), pref, result, lp2_runs[0]))
            return result

        monkeypatch.setattr(orca, "_lp2", counted_lp2)
        monkeypatch.setattr(bench, "orca_planes", spy_planes)
        monkeypatch.setattr(bench, "orca_velocity", spy_velocity)
        for _ in range(self.CHECKED):
            env.step(controller.act(env, obs))
        monkeypatch.undo()

        lines, sub_problems = [], []
        for (pos, vel, radius, nb, circles, walls), kwargs, calls in steps:
            assert len(calls) == len(pos)
            for k, (n_lines, pref, (got, ok), runs) in enumerate(calls):
                want, want_ok = reference_orca_velocity(
                    pos[k], vel[k], radius, tuple(x[k] for x in nb),
                    circles, walls, pref, kwargs["dt"])
                assert got.tobytes() == want.tobytes()
                assert ok == want_ok
                lines.append(n_lines)
                if not ok:
                    sub_problems.append(runs - 1)
        # 1,200 calls: about 300 with 30+ lines, and about 550 fallbacks
        # of which some 350 solve two or more sub-problems
        assert sum(n >= 30 for n in lines) >= 100
        assert sum(n >= 2 for n in sub_problems) >= 100


def world_planes(pos, vel, radii, observers, circles, walls):
    """orca_planes for the observers of a world of len(pos) robots, each
    seeing every other robot, checked row for row against the per-observer
    reference. Returns the planes."""
    n = len(pos)
    others = np.array([[j for j in range(n) if j != i] for i in observers],
                      dtype=int).reshape(len(observers), n - 1)
    planes = orca_planes(pos[observers], vel[observers], 0.25,
                         (pos[others], vel[others], radii[others]), circles,
                         walls)
    assert len(planes) == len(observers)
    for i, row, got in zip(observers, others, planes):
        P, D, num_obst = reference_planes(
            pos[i], vel[i], 0.25, (pos[row], vel[row], radii[row]), circles,
            walls)
        assert got.points.tobytes() == P.tobytes()
        assert got.directions.tobytes() == D.tobytes()
        assert (np.array(got.rows).reshape(-1, 4).tobytes()
                == np.hstack([P, D]).tobytes())
        # the batched dots equal the LP's former one-line `@`s
        assert got.pd == [float(p @ d) for p, d in zip(P, D)]
        assert got.pp == [float(p @ p) for p in P]
        assert got.num_obst == num_obst
    return planes


class TestOrcaPlanes:
    """orca_planes builds every observer's half-planes in one pass; each
    observer's rows must equal, in bytes and order, what the per-robot
    build gives it alone."""

    def test_random_worlds_match_per_observer_reference(self):
        rng = np.random.default_rng(113)
        rows = obst = empty = 0
        for _ in range(300):
            n = int(rng.integers(1, 13))
            pos = rng.uniform(-3.0, 3.0, (n, 2))
            vel = rng.uniform(-0.7, 0.7, (n, 2))
            radii = rng.uniform(0.2, 0.3, n)
            frozen = rng.random(n) < 0.25        # seen, but not observers
            vel[frozen] = 0.0
            circles = [Circle(*rng.uniform(-3.0, 3.0, 2),
                              rng.uniform(0.2, 0.8))
                       for _ in range(int(rng.integers(0, 4)))]
            walls = []
            for _ in range(int(rng.integers(0, 4))):
                x, y = rng.uniform(-3.0, 3.0, 2)
                half = rng.uniform(0.3, 2.0)
                walls.append(Wall(x - half, y, x + half, y, 0.2)
                             if rng.random() < 0.5
                             else Wall(x, y - half, x, y + half, 0.2))
            planes = world_planes(pos, vel, radii, np.flatnonzero(~frozen),
                                  circles, walls)
            for p in planes:
                rows += len(p.rows)
                obst += p.num_obst
                empty += not p.rows
        assert rows > 1000 and obst > 100 and empty > 0

    def test_neighbour_at_exactly_the_range(self):
        # robot 1 sits exactly neighbor_range from robot 0, robot 2 one ulp
        # beyond it
        beyond = np.nextafter(orca.NEIGHBOR_RANGE, 4.0)
        pos = np.array([[0.5, 0.25], [0.5 + orca.NEIGHBOR_RANGE, 0.25],
                        [0.5, 0.25 - beyond]])
        vel = np.array([[0.3, 0.0], [-0.3, 0.1], [0.0, 0.2]])
        planes = world_planes(pos, vel, np.full(3, 0.25), [0, 1, 2], [], [])
        assert len(planes[0].rows) == 1

    def test_observers_on_wall_slab_edges(self):
        # observers on a corner of a wall's box, and at x = +0.0 and -0.0
        # against a box edge of the other sign, so the clamp ties; a -0.0
        # velocity lets the sign of the clamped zero reach the line
        walls = [Wall(1.0, -1.0, 1.0, 1.0, 0.2), Wall(-0.0, 2.0, 2.0, 2.0, 0.2),
                 Wall(0.0, -2.0, 2.0, -2.0, 0.2)]
        pos = np.array([[0.9, 1.0], [0.0, walls[1].aabb[1]],
                        [-0.0, walls[2].aabb[3]], [1.1, -1.0]])
        vel = np.array([[0.2, 0.5], [-0.0, 0.7], [-0.4, -0.6], [0.1, 0.0]])
        planes = world_planes(pos, vel, np.full(4, 0.25), [0, 1, 2, 3], [],
                              walls)
        # each horizontal wall lies beyond range of the other's observer
        assert [p.num_obst for p in planes] == [3, 2, 2, 3]

    def test_coincident_robots(self):
        # robots 0 and 1 coincide at equal velocity (the degenerate collision
        # line), robot 2 coincides with them at another velocity
        pos = np.array([[-2.0, -2.0]] * 3 + [[-1.5, -2.0]])
        vel = np.array([[0.3, 0.1], [0.3, 0.1], [-0.2, 0.4], [0.0, 0.0]])
        planes = world_planes(pos, vel, np.array([0.25, 0.3, 0.2, 0.22]),
                              [0, 1, 2], [Circle(-2.0, -1.0, 0.5)], [])
        assert planes[0].directions[1].tolist() == [0.0, -1.0]
        assert planes[0].rows[2] != planes[0].rows[1]

    def test_no_observers(self):
        assert orca_planes(np.zeros((0, 2)), np.zeros((0, 2)), 0.25,
                           (np.zeros((0, 2, 2)), np.zeros((0, 2, 2)),
                            np.zeros((0, 2))), [Circle(0.0, 0.0, 1.0)],
                           []) == []


class TestNhTrack:
    def test_along_heading(self):
        a = nh_track(np.array([0.6, 0.0]), 0.0)
        assert a.v == pytest.approx(0.6)
        assert a.w == 0.0

    def test_behind_turns_in_place(self):
        a = nh_track(np.array([-0.8, 0.0]), 0.0)
        assert a.v == 0.0
        assert abs(a.w) == 1.0

    def test_ninety_degrees_slow_and_saturated(self):
        a = nh_track(np.array([0.0, 1.0]), 0.0)
        assert a.v < 0.2
        assert a.w == 1.0

    def test_zero_velocity_stops(self):
        a = nh_track(np.zeros(2), 0.3)
        assert (a.v, a.w) == (0.0, 0.0)


class TestPreferredVelocity:
    def test_full_speed_far(self):
        v = preferred_velocity(np.zeros(2), np.array([5.0, 0.0]), 5.0)
        assert np.allclose(v, [1.0, 0.0])

    def test_slows_near_target(self):
        # the goal, not the near running target, sets the speed
        v = preferred_velocity(np.zeros(2), np.array([0.5, 0.0]), 0.5)
        assert np.allclose(v, [0.5, 0.0])
        v = preferred_velocity(np.zeros(2), np.array([0.5, 0.0]), 3.0)
        assert np.allclose(v, [1.0, 0.0])
        v = preferred_velocity(np.zeros(2), np.array([0.5, 0.0]), math.inf)
        assert np.allclose(v, [1.0, 0.0])

    def test_zero_at_target(self):
        v = preferred_velocity(np.array([1.0, 1.0]), np.array([1.0, 1.0]),
                               0.0)
        assert np.allclose(v, [0.0, 0.0])
