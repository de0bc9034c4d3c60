import math

import numpy as np
import pytest

from multinav.geometry import (Circle, Wall, dist_aabb_surface,
                               dist_circle_surface, ray_aabbs, ray_circles)
from multinav.lidar import (BEAM_OFFSETS, MAX_RANGE, N_BEAMS, RANGE_EPS,
                            LidarScan, ScanHistory, apply_lidar_noise,
                            noisy_ranges, raycast, raycast_batch)
from multinav.sim import RobotState, Status, World, WorldConfig
from multinav.tracker import cluster_scan


def world_with(circles=(), walls=(), robots=((0.0, 0.0, 0.0),), radius=0.25):
    cfg = WorldConfig(bounds=(-20, -20, 20, 20), circles=list(circles),
                      walls=list(walls), robot_radius=radius)
    states = [RobotState(position=np.array(r[:2]), heading=r[2], goal=np.array([9.0, 9.0]))
              for r in robots]
    return World(cfg, states)


def reference_raycast(world, agent_index):
    """The per-robot raycast that raycast_batch replaced: one observer's
    beams against the other robots, the static circles and the walls, each
    group in its own product. Returns the (120,) ranges."""
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
    return np.clip(t, RANGE_EPS, MAX_RANGE)


def random_world(rng, n_robots, n_circles, n_walls, heading_zero=False):
    circles = [Circle(*rng.uniform(-4, 4, 2), rng.uniform(0.1, 0.8))
               for _ in range(n_circles)]
    walls = []
    for _ in range(n_walls):
        a, b = sorted(rng.uniform(-4, 4, 2))
        c = rng.uniform(-4, 4)
        walls.append(Wall(a, c, b, c, 0.2) if rng.random() < 0.5
                     else Wall(c, a, c, b, 0.1))
    robots = [(*rng.uniform(-4, 4, 2),
               0.0 if heading_zero else rng.uniform(-4, 4))
              for _ in range(n_robots)]
    return world_with(circles, walls, robots)


def march_ray(origin, angle, circles, walls, robot_discs, eps=1e-9, max_iter=20000):
    """Sphere-tracing oracle: step by the scene's distance field until the
    surface (or max range) is reached. Independent of algebraic intersection."""
    d = np.array([math.cos(angle), math.sin(angle)])
    t = 0.0
    for _ in range(max_iter):
        p = origin + t * d
        sdf = math.inf
        for c in circles:
            sdf = min(sdf, float(dist_circle_surface(p[None, :], c)[0]))
        for w in walls:
            sdf = min(sdf, float(dist_aabb_surface(p[None, :], w.aabb)[0]))
        for center, r in robot_discs:
            sdf = min(sdf, float(np.hypot(*(p - center)) - r))
        if sdf < eps:
            return t
        t += sdf
        if t > MAX_RANGE:
            return MAX_RANGE
    return t


class TestRaycast:
    def test_empty_world_all_max_range(self):
        scan = raycast(world_with(), 0)
        assert scan.ranges.shape == (120,)
        assert np.all(scan.ranges == MAX_RANGE)

    def test_circle_dead_ahead(self):
        scan = raycast(world_with(circles=[Circle(2.0, 0.0, 0.5)]), 0)
        assert scan.ranges[0] == pytest.approx(1.5, abs=1e-12)

    def test_wall_ahead_rear_clear(self):
        scan = raycast(world_with(walls=[Wall(1.0, -3.0, 1.0, 3.0, thickness=0.0002)]), 0)
        # front surface of the wall sits at x = 1.0 - 0.0001
        assert scan.ranges[0] == pytest.approx(0.9999, abs=1e-9)
        assert scan.ranges[60] == MAX_RANGE

    def test_sees_other_robot_surface_not_center(self):
        scan = raycast(world_with(robots=[(0, 0, 0), (1.0, 0.0, 0.0)]), 0)
        assert scan.ranges[0] == pytest.approx(0.75)

    def test_never_hits_self(self):
        scan = raycast(world_with(robots=[(0, 0, 0.7)]), 0)
        assert np.all(scan.ranges == MAX_RANGE)

    def test_beam_zero_follows_heading(self):
        w = world_with(circles=[Circle(0.0, 2.0, 0.5)],
                       robots=[(0.0, 0.0, math.pi / 2)])
        scan = raycast(w, 0)
        assert scan.ranges[0] == pytest.approx(1.5)

    def test_rotational_equivariance(self):
        # rotate the scene and the heading together: same beam readings
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(a), math.sin(a)
            circ = Circle(1.2, 0.4, 0.3)
            w0 = world_with(circles=[circ], robots=[(0, 0, 0.0)])
            w1 = world_with(circles=[Circle(c * 1.2 - s * 0.4, s * 1.2 + c * 0.4, 0.3)],
                            robots=[(0, 0, a)])
            assert np.allclose(raycast(w0, 0).ranges, raycast(w1, 0).ranges,
                               atol=1e-9)

    def test_adding_obstacle_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            base = [Circle(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 0.6))]
            extra = base + [Circle(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 0.6))]
            w0 = world_with(circles=base)
            w1 = world_with(circles=extra)
            r0 = raycast(w0, 0).ranges
            r1 = raycast(w1, 0).ranges
            assert np.all(r1 <= r0 + 1e-12)

    def test_matches_ray_march_oracle(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(60):
            circles = [Circle(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 0.7))
                       for _ in range(rng.integers(1, 4))]
            walls = []
            if rng.random() < 0.4:
                x0, x1 = sorted(rng.uniform(-3, 3, 2))
                y = rng.uniform(-3, 3)
                walls = [Wall(x0, y, x1, y, 0.2)]
            origin = rng.uniform(-1, 1, 2)
            # keep the origin outside everything (sphere tracing needs it)
            if any(float(dist_circle_surface(origin[None], c)[0]) < 0.05 for c in circles):
                continue
            if any(float(dist_aabb_surface(origin[None], w.aabb)[0]) < 0.05 for w in walls):
                continue
            w = world_with(circles=circles, walls=walls,
                           robots=[(origin[0], origin[1], rng.uniform(-3, 3))])
            scan = raycast(w, 0)
            for k in rng.integers(0, N_BEAMS, size=6):
                angle = w.robots[0].heading + BEAM_OFFSETS[k]
                t = march_ray(origin, angle, circles, walls, [])
                got = scan.ranges[k]
                if t >= MAX_RANGE:
                    assert got == MAX_RANGE
                else:
                    worst = max(worst, abs(got - t))
        assert worst < 1e-6


class TestRaycastBatchMatchesReference:
    """Every row of the batched raycast equals the per-robot scan byte for
    byte. One other robot or one static circle makes a one-column product,
    which OpenBLAS rounds (gemv) unlike a wider one (gemm), so the worlds
    hold 0, 1, 2 and more of each."""

    def assert_rows_match(self, world, observers):
        got = raycast_batch(world, observers)
        assert got.shape == (len(observers), N_BEAMS)
        for row, i in zip(got, observers):
            assert row.tobytes() == reference_raycast(world, i).tobytes()
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_worlds(self, seed):
        rng = np.random.default_rng(100 + seed)
        for trial in range(40):
            w = random_world(rng, int(rng.integers(1, 9)),
                             int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                             heading_zero=trial % 4 == 0)
            observers = [i for i in range(len(w.robots)) if rng.random() < 0.8]
            self.assert_rows_match(w, observers)

    def test_heading_zero_on_a_slab_edge(self):
        # beam 0 has a zero y component; the observer sits on the wall's
        # lower face, so its slab test takes 0 * inf, the nan_to_num path
        wall = Wall(1.0, 0.5, 3.0, 0.5, 0.2)
        y = wall.aabb[1]
        w = world_with(walls=[wall], circles=[Circle(-2.0, y, 0.5)],
                       robots=[(0.0, y, 0.0), (2.0, y, 0.0), (0.0, 2.0, 0.0)])
        assert np.sin(0.0 + BEAM_OFFSETS[0]) == 0.0
        got = self.assert_rows_match(w, [0, 1, 2])
        assert got[0, 0] < MAX_RANGE and got[1, 0] == RANGE_EPS

    def test_observer_inside_a_wall_or_a_disc(self):
        w = world_with(circles=[Circle(0.0, 0.0, 0.6)],
                       walls=[Wall(2.0, -1.0, 2.0, 1.0, 0.4)],
                       robots=[(0.1, 0.0, 0.3), (2.05, 0.2, 1.0),
                               (2.2, 0.2, -2.0), (-1.0, -1.0, 0.0)])
        got = self.assert_rows_match(w, [0, 1, 2, 3])
        assert np.all(got[:3] == RANGE_EPS)     # every beam starts inside

    def test_touching_discs(self):
        w = world_with(robots=[(0.0, 0.0, 0.0), (0.5, 0.0, math.pi),
                               (0.0, 0.5, 0.2), (1.0, 0.0, 2.0)])
        got = self.assert_rows_match(w, [0, 1, 2, 3])
        # robot 1's disc touches robot 0's: its surface is 0.25 m ahead
        assert got[0, 0] == pytest.approx(0.25)
        assert got[1, 0] == pytest.approx(0.25)

    def test_frozen_robots_stay_targets(self):
        w = world_with(robots=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                               (-1.0, 0.0, 0.0), (0.0, 1.5, 0.0)])
        w.robots[1].status = Status.COLLIDED
        w.robots[3].status = Status.REACHED_GOAL
        live = [i for i, r in enumerate(w.robots) if r.status == Status.ACTIVE]
        got = self.assert_rows_match(w, live)
        assert got[0, 0] == pytest.approx(0.75)  # robot 0 sees frozen robot 1

    def test_one_robot_world(self):
        rng = np.random.default_rng(7)
        for walls, circles in ((0, 0), (0, 1), (1, 0), (2, 3)):
            self.assert_rows_match(random_world(rng, 1, circles, walls), [0])

    def test_no_observers(self):
        w = world_with(robots=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        assert raycast_batch(w, []).shape == (0, N_BEAMS)


class TestLidarNoise:
    def base_scan(self, r=2.0):
        scan = raycast(world_with(), 0)
        scan.ranges = np.full(N_BEAMS, r)
        return scan

    def test_sigma_zero_identity(self):
        scan = self.base_scan()
        out = apply_lidar_noise(scan, np.random.default_rng(0), sigma=0.0)
        assert out is scan

    def test_multiplicative_gaussian_stats(self):
        # 1e5 samples of a 2.0 m beam: mean 2.0 +- 0.01, std 0.07 +- 0.005
        rng = np.random.default_rng(21)
        samples = []
        scan = self.base_scan(2.0)
        for _ in range(1000):
            samples.append(apply_lidar_noise(scan, rng).ranges[:100])
        flat = np.concatenate(samples)
        assert len(flat) == 100000
        assert abs(flat.mean() - 2.0) < 0.01
        assert abs(flat.std() - 0.07) < 0.005

    def test_clipping_at_max_range(self):
        scan = self.base_scan(MAX_RANGE)
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = apply_lidar_noise(scan, rng)
            assert np.all(out.ranges <= MAX_RANGE)
            assert np.all(out.ranges > 0)

    def test_non_returns_stay_at_max_range(self):
        # an empty world has no return; noise must not invent any
        scan = raycast(world_with(), 0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            out = apply_lidar_noise(scan, rng, sigma=0.035)
            assert np.all(out.ranges == MAX_RANGE)
            assert cluster_scan(out, (0.0, 0.0, 0.0)) == []


    def test_one_draw_equals_sequential_scans(self):
        # a (k, 120) draw per step gives the ranges and leaves the stream
        # where k apply_lidar_noise calls in turn would, and draws nothing
        # beyond its k * 120 normals
        rng = np.random.default_rng(31)
        w = random_world(rng, 6, 2, 2)
        ranges = raycast_batch(w, list(range(6)))
        assert (ranges < MAX_RANGE).any() and (ranges == MAX_RANGE).any()
        batch, turns, count = (np.random.default_rng(9) for _ in range(3))
        for step in range(4):
            rows = ranges[: 6 - step]
            got = noisy_ranges(rows, batch, 0.035)
            for row, r in zip(got, rows):
                want = apply_lidar_noise(LidarScan(ranges=r, timestamp=0.0),
                                         turns, 0.035).ranges
                assert row.tobytes() == want.tobytes()
            count.normal(size=rows.size)
            assert batch.bit_generator.state == turns.bit_generator.state
            assert batch.bit_generator.state == count.bit_generator.state


class TestScanHistory:
    def test_replicates_first_scan(self):
        h = ScanHistory()
        s = self.scan(1.0)
        h.push(s)
        assert len(h) == 3
        assert np.array_equal(h.stacked, np.full((3, 120), 1.0))

    def test_oldest_first_order(self):
        h = ScanHistory()
        for r in (1.0, 2.0, 3.0, 4.0):
            h.push(self.scan(r))
        assert np.array_equal(h.stacked[:, 0], [2.0, 3.0, 4.0])

    def scan(self, r):
        from multinav.lidar import LidarScan
        return LidarScan(ranges=np.full(120, r), timestamp=0.0)
