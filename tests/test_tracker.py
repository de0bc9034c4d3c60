import collections
import math

import numpy as np
import pytest

from multinav import planner as planner_module
from multinav import tracker as tracker_module
from multinav.bench import StraightController
from multinav.geometry import Wall
from multinav.lidar import (BEAM_OFFSETS, MAX_RANGE, N_BEAMS, LidarScan,
                            ScanHistory, apply_lidar_noise, noisy_ranges,
                            raycast, raycast_batch)
from multinav.observations import NoiseConfig, build_observation
from multinav.planner import NearTable, dilate, rasterize
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import Kind, eval_suite, generate
from multinav.sim import Action, Status, World, WorldConfig
from multinav.tracker import (CLUSTER_GAP, EMA_BETA, GATING_RADIUS,
                              GRACE_STEPS, HIT_MARGIN, ICP_DAMPING,
                              ICP_ITERATIONS, ICP_TOL,
                              STATIC_MARGIN,
                              V_MAX_GATE, VELOCITY_BASELINE_STEPS, Cluster,
                              ClusterTrack, Tracker, cluster_batch,
                              cluster_scan, estimate_velocity,
                              icp_translation, split_static, update_trackers)
from test_lidar import random_world, reference_raycast


def make_world(robots, circles=(), walls=()):
    cfg = WorldConfig(bounds=(-10, -10, 10, 10), circles=list(circles),
                      walls=list(walls))
    return World(cfg, robots, [(9.0, 9.0)] * len(robots))


def empty_near():
    return NearTable(rasterize(WorldConfig(bounds=(-10, -10, 10, 10))),
                     STATIC_MARGIN)


def scan_of(world, idx=0):
    return raycast(world, idx)


class TestClusterScan:
    def test_all_max_range_empty(self):
        w = make_world([(0, 0, 0)])
        clusters = cluster_scan(scan_of(w), (0, 0, 0))
        assert clusters == []

    def test_single_disc_ahead(self):
        w = make_world([(0, 0, 0), (1.0, 0, 0)])
        clusters = cluster_scan(scan_of(w), (0, 0, 0))
        assert len(clusters) == 1
        # closest silhouette point is the near surface, 0.75 m ahead
        assert clusters[0].closest_point[0] == pytest.approx(0.75, abs=1e-9)
        assert clusters[0].closest_point[1] == pytest.approx(0.0, abs=1e-9)

    def test_two_discs_split(self):
        w = make_world([(0, 0, 0), (2.0, 1.0, 0), (2.0, -1.0, 0)])
        clusters = cluster_scan(scan_of(w), (0, 0, 0))
        assert len(clusters) == 2

    def test_wrap_around_merges(self):
        # disc dead ahead spans beams on both sides of index 0
        w = make_world([(0, 0, 0), (1.0, 0, 0)])
        scan = scan_of(w)
        hit_idx = np.flatnonzero(scan.ranges < scan.max_range - 1e-6)
        assert 0 in hit_idx and 119 in hit_idx  # silhouette crosses the wrap
        assert len(cluster_scan(scan, (0, 0, 0))) == 1

    def test_points_in_world_frame(self):
        w = make_world([(1.0, 1.0, math.pi / 2), (1.0, 3.0, 0)])
        clusters = cluster_scan(scan_of(w), (1.0, 1.0, math.pi / 2))
        assert len(clusters) == 1
        assert clusters[0].closest_point[1] == pytest.approx(2.75, abs=1e-9)
        assert clusters[0].closest_point[0] == pytest.approx(1.0, abs=1e-2)


def reference_cluster_scan(scan, observer_pose):
    """The per-beam clustering loop that cluster_batch replaced."""
    x, y, heading = observer_pose
    hits = scan.ranges < scan.max_range - HIT_MARGIN
    if not hits.any():
        return []
    angles = heading + BEAM_OFFSETS
    px = x + scan.ranges * np.cos(angles)
    py = y + scan.ranges * np.sin(angles)

    groups, current = [], []
    for k in range(len(scan.ranges)):
        if not hits[k]:
            if current:
                groups.append(current)
                current = []
            continue
        if current:
            j = current[-1]
            if math.hypot(px[k] - px[j], py[k] - py[j]) > CLUSTER_GAP:
                groups.append(current)
                current = []
        current.append(k)
    if current:
        groups.append(current)
    # wrap-around: last and first group may be one object split at beam 0
    if len(groups) > 1 and hits[0] and hits[-1]:
        j, k = groups[-1][-1], groups[0][0]
        if math.hypot(px[k] - px[j], py[k] - py[j]) <= CLUSTER_GAP:
            groups[0] = groups.pop() + groups[0]

    clusters = []
    for idx in groups:
        pts = np.column_stack([px[idx], py[idx]])
        nearest = int(np.argmin(scan.ranges[idx]))
        clusters.append(Cluster(points=pts, closest_point=pts[nearest].copy()))
    return clusters


def reference_split(clusters, grid):
    """One observer's static split, as split_static ran it per observer."""
    if not clusters:
        return []
    near = grid.occupied_near_points(
        np.concatenate([c.points for c in clusters]), STATIC_MARGIN)
    starts = np.cumsum([0] + [len(c.points) for c in clusters[:-1]])
    return [c for c, on_static
            in zip(clusters, np.logical_and.reduceat(near, starts))
            if not on_static]


def cluster_bytes(clusters):
    return [(c.points.tobytes(), c.closest_point.tobytes()) for c in clusters]


def ranges_with_gap(beams, target, pose, tie=False):
    """(120,) ranges that hit on the two given adjacent beams only, their
    points exactly target apart as math.hypot measures them (the way the
    per-beam loop does). With tie, np.hypot rounds that gap to another
    value."""
    x, y, heading = pose
    angles = heading + BEAM_OFFSETS
    cos, sin = np.cos(angles), np.sin(angles)
    a, b = beams
    for r0 in np.linspace(1.0, 2.0, 3000):
        def delta(r1):
            return ((x + r1 * cos[b]) - (x + r0 * cos[a]),
                    (y + r1 * sin[b]) - (y + r0 * sin[a]))

        lo, hi = r0, r0 + 1.0            # the gap grows along beam b here
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if math.hypot(*delta(mid)) < target:
                lo = mid
            else:
                hi = mid
        r1 = np.nextafter(lo, 0.0)
        for _ in range(8):
            dx, dy = delta(r1)
            if math.hypot(dx, dy) == target and (
                    not tie or np.hypot(dx, dy) != target):
                ranges = np.full(N_BEAMS, MAX_RANGE)
                ranges[a], ranges[b] = r0, r1
                return ranges
            r1 = np.nextafter(r1, np.inf)
    raise AssertionError(f"no range pair {target!r} apart")


class TestClusterBatchMatchesReference:
    """Each row of cluster_batch equals the per-beam loop on that scan: the
    same clusters in the same order, their points and closest points byte
    for byte."""

    def assert_rows_match(self, ranges, poses):
        got = cluster_batch(ranges, poses)
        assert len(got) == len(ranges)
        for row, pose, clusters in zip(ranges, poses, got):
            want = reference_cluster_scan(LidarScan(ranges=row, timestamp=0.0),
                                          tuple(pose))
            assert cluster_bytes(clusters) == cluster_bytes(want)
        return got

    @pytest.mark.parametrize("noise", [False, True])
    def test_random_worlds_several_observers(self, noise):
        rng = np.random.default_rng(61 + noise)
        wraps = 0
        for _ in range(60):
            w = random_world(rng, int(rng.integers(2, 12)),
                             int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            live = list(range(len(w.robots)))
            ranges = raycast_batch(w, live)
            if noise:
                ranges = noisy_ranges(ranges, rng)
            poses = np.array([(*r.position, r.heading) for r in w.robots])
            got = self.assert_rows_match(ranges, poses)
            # scans whose first and last clusters may join across the wrap
            wraps += sum(row[0] < MAX_RANGE and row[-1] < MAX_RANGE
                         and len(clusters) > 1
                         for row, clusters in zip(ranges, got))
        assert wraps > 0

    def test_wrap_merge_all_hit_and_all_miss(self):
        wrap = np.full(N_BEAMS, MAX_RANGE)
        wrap[115:], wrap[:5], wrap[50:56] = 1.0, 1.2, 0.8
        all_hit = np.full(N_BEAMS, 1.0)
        all_hit_split = all_hit.copy()
        all_hit_split[30:41] = 2.0        # two breaks; 119 -> 0 rejoins
        all_hit_wrap_only = 1.0 + 0.02 * np.arange(N_BEAMS)  # breaks at 0
        all_miss = np.full(N_BEAMS, MAX_RANGE)
        ranges = np.array([wrap, all_hit, all_miss, all_hit_split,
                           all_hit_wrap_only, wrap])
        poses = np.array([(0.0, 0.0, 0.0), (1.0, -2.0, 0.4), (0.0, 0.0, 1.0),
                          (-0.5, 0.5, -2.0), (2.0, 2.0, 3.0), (3.0, 1.0, 2.5)])
        got = self.assert_rows_match(ranges, poses)
        assert [len(c) for c in got] == [2, 1, 0, 2, 1, 1 + 1]
        # the joined cluster comes first, from beam 115 on
        assert len(got[0][0].points) == 10 and len(got[3][0].points) == 109

    @pytest.mark.parametrize("beams", [(10, 11), (119, 0)])
    def test_gap_at_cluster_gap_and_one_ulp_either_side(self, beams):
        pose = (0.3, -0.2, 0.7)
        rows, counts = [], []
        for target, joined in ((np.nextafter(CLUSTER_GAP, 0.0), True),
                               (CLUSTER_GAP, True),
                               (np.nextafter(CLUSTER_GAP, 1.0), False)):
            ranges = ranges_with_gap(beams, target, pose)
            ranges[60] = 1.5      # a second cluster, so 119 -> 0 can join
            rows.append(ranges)
            counts.append(2 if joined else 3)
        got = self.assert_rows_match(np.array(rows), np.array([pose] * 3))
        assert [len(c) for c in got] == counts

    def test_gap_tie_settled_by_math_hypot(self):
        # beams 10 and 11 lie CLUSTER_GAP apart by math.hypot, which joins
        # them, but np.hypot rounds the gap one ulp away
        pose = (0.3, -0.2, 0.7)
        ranges = ranges_with_gap((10, 11), CLUSTER_GAP, pose, tie=True)
        ranges[60] = 1.5
        got = self.assert_rows_match(ranges[None], np.array([pose]))
        assert len(got[0]) == 2

    def test_split_matches_per_observer_split(self):
        # a wall on the grid's top edge: noisy points just outside the grid
        # sit next to its occupied edge cells, others far outside
        cfg = WorldConfig(bounds=(-3, -3, 3, 3),
                          walls=[Wall(-3.0, 3.0, 3.0, 3.0, 0.1)])
        grid = rasterize(cfg)
        assert grid.cells[:, -1].all()
        rng = np.random.default_rng(71)
        observers = []
        for _ in range(5):
            clusters = []
            for _ in range(int(rng.integers(0, 6))):
                n = int(rng.integers(1, 8))
                x = rng.uniform(-3.5, 3.5)
                y = 3.0 + rng.choice([0.02, 0.1, 0.2, 1.0, -0.5])
                pts = np.column_stack([x + 0.05 * np.arange(n),
                                       y + rng.normal(0.0, 0.03, n)])
                clusters.append(Cluster(points=pts, closest_point=pts[0]))
            observers.append(clusters)
        got = split_static(observers, NearTable(grid, STATIC_MARGIN))
        kept = 0
        for dynamic, clusters in zip(got, observers):
            want = reference_split(clusters, grid)
            assert [id(c) for c in dynamic] == [id(c) for c in want]
            kept += len(want)
        assert 0 < kept < sum(map(len, observers))


class TestIcp:
    def test_recovers_pure_translation(self):
        rng = np.random.default_rng(41)
        src = rng.uniform(-1, 1, size=(12, 2))
        shift = np.array([0.05, -0.03])
        t = icp_translation([src], [src + shift])[0]
        assert np.allclose(t, shift, atol=1e-9)

    def test_trims_outliers(self):
        # arc-like silhouette plus one spurious far point in the source
        theta = np.linspace(0.0, 1.0, 12)
        curve = np.column_stack([np.cos(theta), np.sin(theta)])
        src = np.vstack([curve, [[5.0, 5.0]]])
        dst = curve + np.array([0.04, 0.0])
        t = icp_translation([src], [dst])[0]
        assert np.allclose(t, [0.04, 0.0], atol=5e-3)


def plain_icp(src, dst, iterations=40, tol=ICP_TOL):
    """The plain fixed-point loop t <- t + F(t), mean trimmed residual F, in
    its original (n, m, 2) form and with the 40-pass cap it ran with."""
    t = np.median(dst, axis=0) - np.median(src, axis=0)
    for _ in range(iterations):
        delta, _ = trimmed_means(src + t, dst)
        t = t + delta
        if np.hypot(*delta) < tol:
            break
    return t


def trimmed_means(moved, dst):
    """(mean residual vector, mean of u u^T as (u0 u0, u0 u1, u1 u1)) over
    the points of moved whose residual to the polyline through dst (to its
    one point) is within 3x the median residual; u is the unit tangent of a
    point's matched segment, 0 where the match is a segment end or the one
    dst point. The sums run in point order."""
    u = np.zeros(moved.shape)
    if len(dst) == 1:
        proj = np.tile(dst[0], (len(moved), 1))
    else:
        a, b = dst[:-1], dst[1:]
        seg = b - a
        seg_len2 = np.maximum((seg * seg).sum(axis=1), 1e-18)
        ap = moved[:, None, :] - a[None, :, :]
        tt = np.clip((ap * seg[None]).sum(axis=2) / seg_len2[None], 0.0, 1.0)
        q = a[None] + tt[..., None] * seg[None]
        d2 = ((moved[:, None, :] - q) ** 2).sum(axis=2)
        j = np.argmin(d2, axis=1)
        rows = np.arange(len(moved))
        proj = q[rows, j]
        inside = (tt[rows, j] > 0.0) & (tt[rows, j] < 1.0)
        u = np.where(inside[:, None], (seg / np.sqrt(seg_len2)[:, None])[j],
                     0.0)
    diff = proj - moved
    residuals = np.hypot(diff[:, 0], diff[:, 1])
    keep = residuals <= 3.0 * np.median(residuals) + 1e-12
    terms = np.column_stack([diff, u[:, 0] * u[:, 0], u[:, 0] * u[:, 1],
                             u[:, 1] * u[:, 1]])[keep]
    means = terms.sum(axis=0) / len(terms)
    return means[:2], means[2:]


def reference_icp(src, dst, counts=None):
    """icp_translation's damped Gauss-Newton loop for one pair, the step in
    Python floats. counts, when given, tallies the pairs stopped by the pass
    cap ("cap")."""
    x0, x1 = np.median(dst, axis=0) - np.median(src, axis=0)
    diagonal = 1.0 + ICP_DAMPING
    for _ in range(ICP_ITERATIONS):
        g, c = trimmed_means(src + np.array([x0, x1]), dst)
        (g0, g1), (c00, c01, c11) = g.tolist(), c.tolist()
        h00, h11 = diagonal - c00, diagonal - c11
        det = h00 * h11 - c01 * c01
        s0, s1 = (h11 * g0 + c01 * g1) / det, (c01 * g0 + h00 * g1) / det
        x0, x1 = x0 + s0, x1 + s1
        if np.hypot(s0, s1) < ICP_TOL:
            break
    else:
        if counts is not None:
            counts["cap"] += 1
    return np.array([x0, x1])


def icp_cases(noisy=True):
    """ICP pairs of every size and shape; noisy=False leaves out the noisy
    silhouette arcs at the end."""
    rng = np.random.default_rng(17)
    line = np.column_stack([np.linspace(0.0, 1.0, 7), np.zeros(7)])
    cases = [
        (np.array([[0.3, 0.4]]), np.array([[0.5, 0.1]])),             # 1 to 1
        (np.array([[0.3, 0.4]]), np.array([[0.0, 0.0], [1.0, 0.0]])),  # 1 to 2
        (np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([[0.2, 0.3]])),  # 2 to 1
        (np.zeros((4, 2)), np.zeros((3, 2))),                       # all at 0
        (np.array([[1.0, 1.0]] * 3), np.array([[1.2, 0.9]] * 5)),   # duplicates
        (line, line + [0.05, 0.0]),                                 # collinear
        (line[:6], line[:6] + [0.0, -0.02]),                        # even n
        (line, line[::-1]),                                         # reversed
        (np.vstack([line, [[4.0, -3.0]]]), line + [0.03, 0.01]),   # outlier
        (np.zeros((9, 2)), np.zeros((1, 2))),                       # zeros, 1 dst
        (np.zeros((1, 2)), np.zeros((6, 2))),
        (np.zeros((12, 2)), np.zeros((12, 2))),
        (np.zeros((1, 2)), np.full((1, 2), -0.0)),                  # signed zeros
        (np.zeros((3, 2)), np.full((2, 2), -0.0)),
    ]
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 40):
        for m in (1, 2, 3, 6, 11):
            src = rng.normal(0.0, 0.5, (n, 2))
            dst = rng.normal(0.0, 0.5, (m, 2)) + rng.uniform(-0.1, 0.1, 2)
            cases.append((src, dst))
            arc = np.column_stack([np.cos(np.linspace(0, 1, n)),
                                   np.sin(np.linspace(0, 1, n))])
            cases.append((arc, arc[:m] + rng.normal(0.0, 0.01, 2)))
    for n in (8, 13, 21, 40):                    # many points onto one
        cases.append((rng.normal(0.0, 0.5, (n, 2)),
                      rng.normal(0.0, 0.5, (1, 2))))
    if not noisy:
        return cases
    # noisy silhouette arcs: some take more passes, and a trim set may
    # chatter until the pass cap
    for _ in range(24):
        n, m = rng.integers(3, 12), rng.integers(2, 12)
        arcs = [0.25 * np.column_stack([np.cos(th), np.sin(th)])
                + rng.normal(0.0, 0.03, (len(th), 2))
                for th in (np.linspace(0.0, 1.2, n), np.linspace(0.1, 1.3, m))]
        cases.append((arcs[0], arcs[1] + [0.05, 0.1]))
    return cases


class TestIcpMatchesReference:
    def test_bit_for_bit(self):
        counts = collections.Counter()
        for src, dst in icp_cases():
            want = reference_icp(src, dst, counts)
            got = icp_translation([src], [dst])
            assert got.shape == (1, 2)
            assert np.array_equal(got[0], want)
            assert got[0].tobytes() == want.tobytes()  # signed zeros too
        assert counts["cap"] > 0

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("batch_elements", [None, 64])
    def test_mixed_batch_bit_for_bit(self, shuffle, batch_elements,
                                     monkeypatch):
        # every size, single-point dsts and all-zero sets in one call, in
        # one lockstep batch or in many small ones: each row must not depend
        # on the rows padded beside it
        if batch_elements is not None:
            monkeypatch.setattr(tracker_module, "_BATCH_ELEMENTS",
                                batch_elements)
        cases = icp_cases()
        order = np.arange(len(cases))
        if shuffle:
            order = np.random.default_rng(5).permutation(len(cases))
        got = icp_translation([cases[k][0] for k in order],
                              [cases[k][1] for k in order])
        assert got.shape == (len(cases), 2)
        for row, k in zip(got, order):
            assert row.tobytes() == reference_icp(*cases[k]).tobytes()

    def test_empty_batch(self):
        assert icp_translation([], []).shape == (0, 2)


class TestGaussNewtonStep:
    def test_straight_segment_moves_along_its_normal_only(self):
        # every source point matches the interior of one straight segment,
        # so H = I - u u^T has rank 1 and only the damping keeps the step
        # finite: the row moves to the least-squares normal offset and
        # keeps the tangential component of its median start
        src = np.column_stack([np.linspace(0.1, 0.5, 5), np.zeros(5)])
        dst = np.array([[-1.0, -0.05], [2.0, 0.25]])
        tangent = (dst[1] - dst[0]) / np.hypot(*(dst[1] - dst[0]))
        normal = np.array([-tangent[1], tangent[0]])
        start = np.median(dst, axis=0) - np.median(src, axis=0)
        t = icp_translation([src], [dst])[0]
        assert np.isfinite(t).all()
        assert np.isclose(t @ normal, dst[0] @ normal - (src @ normal).mean(),
                          rtol=0.0, atol=1e-9)
        assert np.isclose(t @ tangent, start @ tangent, rtol=0.0, atol=1e-12)

    def test_single_point_dst_takes_the_mean_residual_update(self,
                                                              monkeypatch):
        # no segment, so u = 0, H = I and the step is the mean residual
        # shrunk by 1 + ICP_DAMPING; the loop ends at the plain loop's
        # fixed point, the single dst point minus the source's mean
        src = np.array([[0.0, 0.0], [0.3, 0.1], [0.1, 0.2], [0.05, -0.1],
                        [0.2, 0.0]])
        dst = np.array([[0.4, -0.3]])
        start = dst[0] - np.median(src, axis=0)
        residual = dst[0] - src.mean(axis=0) - start
        assert np.allclose(icp_translation([src], [dst])[0],
                           dst[0] - src.mean(axis=0), rtol=0.0, atol=1e-9)
        monkeypatch.setattr(tracker_module, "ICP_ITERATIONS", 1)
        assert np.allclose(icp_translation([src], [dst])[0],
                           start + residual / (1.0 + ICP_DAMPING),
                           rtol=0.0, atol=1e-15)

    def test_noiseless_pairs_stop_within_eight_passes(self, monkeypatch):
        cases = icp_cases(noisy=False)
        srcs, dsts = [c[0] for c in cases], [c[1] for c in cases]
        want = icp_translation(srcs, dsts)
        monkeypatch.setattr(tracker_module, "ICP_ITERATIONS", 8)
        assert icp_translation(srcs, dsts).tobytes() == want.tobytes()


class TestIcpAgainstGroundTruth:
    def test_no_less_accurate_than_the_plain_loop(self):
        # a disc seen by the 120-beam LiDAR before and after a known move,
        # tangential up to 0.15 m and along the line of sight up to 0.05 m.
        # The beams sample the silhouette 3 degrees apart, 4 to 16 cm at 0.8
        # to 3 m, and where they fall on it moves with the disc: that
        # quantization, not the loop, sets how far ICP lands from the true
        # shift. The Gauss-Newton loop has the plain loop's fixed points,
        # so its error may not exceed the plain loop's, within 1 mm
        rng = np.random.default_rng(29)
        srcs, dsts, shifts = [], [], []
        while len(srcs) < 300:
            bearing, dist = rng.uniform(-np.pi, np.pi), rng.uniform(0.8, 3.0)
            radial = np.array([np.cos(bearing), np.sin(bearing)])
            tangent = np.array([-radial[1], radial[0]])
            shift = (rng.uniform(-0.15, 0.15) * tangent
                     + rng.uniform(-0.05, 0.05) * radial)
            heading = rng.uniform(-np.pi, np.pi)
            w = make_world([(0.0, 0.0, heading), (*(dist * radial), 0.0)])
            before = cluster_scan(scan_of(w), (0.0, 0.0, heading))
            w.robots[1].position = w.robots[1].position + shift
            after = cluster_scan(scan_of(w), (0.0, 0.0, heading))
            assert len(before) == len(after) == 1
            srcs.append(before[0].points)
            dsts.append(after[0].points)
            shifts.append(shift)
        errors = {
            "icp": np.hypot(*(icp_translation(srcs, dsts) - shifts).T),
            "plain": np.hypot(*(np.array([plain_icp(s, d) for s, d in
                                          zip(srcs, dsts)]) - shifts).T)}
        mean, p99 = ({k: stat(e) for k, e in errors.items()} for stat in
                     (np.mean, lambda e: np.percentile(e, 99)))
        assert mean["icp"] <= mean["plain"] + 1e-3, mean
        assert p99["icp"] <= p99["plain"] + 1e-3, p99


class TestEstimateVelocity:
    def track(self, observations, velocity=(0.0, 0.0)):
        return ClusterTrack(id=0, closest_point=np.zeros(2),
                            velocity_estimate=np.array(velocity, dtype=float),
                            observations=observations)

    def test_second_observation_initializes(self):
        v = estimate_velocity(self.track(1), np.array([0.05, 0.0]), 0.1, 1)
        assert np.allclose(v, [0.5, 0.0])
        # a 5-frame baseline spans five frames of motion
        v = estimate_velocity(self.track(1), np.array([0.25, 0.0]), 0.1, 5)
        assert np.allclose(v, [0.5, 0.0])

    def test_stationary_converges_to_zero(self):
        t = self.track(2, velocity=(1.0, 0.5))
        for _ in range(60):
            t.velocity_estimate = estimate_velocity(t, np.zeros(2), 0.1, 1)
        assert np.all(np.abs(t.velocity_estimate) < 1e-6)

    def test_ema_convergence_bound(self):
        # with beta = 0.5 the error halves per frame: |err| = |v0| * 0.5^k
        assert EMA_BETA == 0.5
        t = self.track(2, velocity=(0.0, 0.0))
        true = np.array([0.8, -0.2])
        for k in range(10):
            t.velocity_estimate = estimate_velocity(t, true * 0.1, 0.1, 1)
        err = np.hypot(*(t.velocity_estimate - true))
        assert err < 0.05
        assert err == pytest.approx(np.hypot(*true) * 0.5 ** 10, rel=1e-9)


class TestAssociate:
    def test_wall_cluster_is_static(self):
        cfg = WorldConfig(bounds=(-10, -10, 10, 10),
                          walls=[Wall(2.0, -3.0, 2.0, 3.0, 0.2)])
        near = NearTable(rasterize(cfg), STATIC_MARGIN)
        w = World(cfg, [(0.0, 0.0, 0.0)], [(9.0, 9.0)])
        assert len(cluster_scan(scan_of(w), (0, 0, 0))) >= 1
        tracker = Tracker()
        assert tracker.update(scan_of(w), (0, 0, 0), near, 0.1) == []
        assert tracker.dynamic_tracks() == []

    def test_moving_disc_velocity_estimate(self):
        # scripted motion: disc translating at (0.5, 0) m/s, static observer
        w = make_world([(0, 0, 0), (-1.0, 1.5, 0)])
        near = empty_near()
        tracker = Tracker()
        dt = 0.1
        for step in range(30):
            w.robots[1].position = np.array([-1.0 + 0.5 * dt * step, 1.5])
            tracks = tracker.update(scan_of(w), (0, 0, 0), near, dt)
        dyn = tracker.dynamic_tracks()
        assert len(dyn) == 1
        assert abs(dyn[0].velocity_estimate[0] - 0.5) < 0.1
        assert abs(dyn[0].velocity_estimate[1]) < 0.1

    def test_teleport_spawns_new_track(self):
        w = make_world([(0, 0, 0), (1.5, 0.0, 0)])
        near = empty_near()
        tracker = Tracker()
        tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
        first_ids = {t.id for t in tracker.tracks}
        w.robots[1].position = np.array([1.5, 2.0])  # 2 m jump in one frame
        tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
        current = {t.id for t in tracker.tracks if t.misses == 0}
        assert current and not (current & first_ids)

    def test_track_id_stable_for_smooth_motion(self):
        w = make_world([(0, 0, 0), (2.0, -1.5, 0)])
        near = empty_near()
        tracker = Tracker()
        dt = 0.1
        ids = set()
        for step in range(60):
            w.robots[1].position = np.array([2.0, -1.5 + 0.4 * dt * step])
            tracker.update(scan_of(w), (0, 0, 0), near, dt)
            ids.update(t.id for t in tracker.dynamic_tracks())
        assert len(ids) == 1

    def test_grace_then_drop(self):
        w = make_world([(0, 0, 0), (1.5, 0.0, 0)])
        near = empty_near()
        tracker = Tracker()
        tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
        assert len(tracker.tracks) == 1
        empty = make_world([(0, 0, 0)])
        for k in range(GRACE_STEPS):
            tracker.update(scan_of(empty), (0, 0, 0), near, 0.1)
            assert len(tracker.tracks) == 1  # coasting through the grace window
            assert tracker.dynamic_tracks() == []  # but not shown as a neighbour
        tracker.update(scan_of(empty), (0, 0, 0), near, 0.1)
        assert tracker.tracks == []

    def test_static_clusters_cost_no_icp(self, monkeypatch):
        calls = []

        def counted(srcs, dsts, *args, **kwargs):
            calls.append(len(srcs))
            return np.zeros((len(srcs), 2))

        monkeypatch.setattr(tracker_module, "icp_translation", counted)
        cfg = WorldConfig(bounds=(-10, -10, 10, 10),
                          walls=[Wall(2.0, -3.0, 2.0, 3.0, 0.2)])
        near = NearTable(rasterize(cfg), STATIC_MARGIN)
        w = World(cfg, [(0.0, 0.0, 0.0)], [(9.0, 9.0)])
        tracker = Tracker()
        for _ in range(5):
            assert len(cluster_scan(scan_of(w), (0, 0, 0))) >= 1
            assert tracker.update(scan_of(w), (0, 0, 0), near, 0.1) == []
        assert sum(calls) == 0

    def test_frames_share_one_dilation(self, monkeypatch):
        # the caller builds the static-split table once per grid, so its
        # dilation serves every frame
        calls = []

        def counted(cells, r):
            calls.append(r)
            return dilate(cells, r)

        monkeypatch.setattr(planner_module, "dilate", counted)
        cfg = WorldConfig(bounds=(-10, -10, 10, 10),
                          walls=[Wall(2.0, -3.0, 2.0, 3.0, 0.2)])
        near = NearTable(rasterize(cfg), STATIC_MARGIN)
        w = World(cfg, [(0.0, 0.0, 0.0)], [(9.0, 9.0)])
        tracker = Tracker()
        for _ in range(5):
            tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
        assert len(calls) == 1

    def test_second_frame_match_costs_one_icp(self, monkeypatch):
        calls = []                       # ICP jobs per batch

        def counted(srcs, dsts, *a, **k):
            calls.append(len(srcs))
            return icp_translation(srcs, dsts, *a, **k)

        monkeypatch.setattr(tracker_module, "icp_translation", counted)
        w = make_world([(0, 0, 0), (1.5, 0.0, 0)])
        near = empty_near()
        tracker = Tracker()
        counts = []
        for step in range(3):
            w.robots[1].position = np.array([1.5, 0.04 * step])
            tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
            counts.append(sum(calls))
            calls.clear()
        assert counts == [0, 1, 2]  # spawn; gate only; gate plus baseline
        assert len(tracker.dynamic_tracks()) == 1

    def test_no_dynamic_track_from_static_points(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            x = rng.uniform(1.0, 2.5)
            cfg = WorldConfig(bounds=(-10, -10, 10, 10),
                              walls=[Wall(x, -3.0, x, 3.0, 0.2)])
            near = NearTable(rasterize(cfg), STATIC_MARGIN)
            w = World(cfg, [(0.0, 0.0, 0.0)], [(9.0, 9.0)])
            tracker = Tracker()
            for _ in range(5):
                tracker.update(scan_of(w), (0, 0, 0), near, 0.1)
            assert tracker.dynamic_tracks() == []


def reference_update(tracker, scan, pose, grid, dt):
    """The per-observer association loop the batched update replaced: one
    ICP per gated pair, called only when the greedy matching reaches it."""
    clusters = reference_cluster_scan(scan, pose)
    dynamic_clusters = []
    if clusters:
        near = grid.occupied_near_points(
            np.concatenate([c.points for c in clusters]), STATIC_MARGIN)
        starts = np.cumsum([0] + [len(c.points) for c in clusters[:-1]])
        for c, on_static in zip(clusters, np.logical_and.reduceat(near, starts)):
            if not on_static:
                dynamic_clusters.append(c)
    tracks = tracker.tracks
    out, matched_tracks, used_clusters = [], set(), set()
    pairs = []
    for t in tracks:
        pred = t.closest_point + t.velocity_estimate * dt
        for ci, c in enumerate(dynamic_clusters):
            d = float(np.hypot(*(c.closest_point - pred)))
            if d <= GATING_RADIUS:
                pairs.append((d, t.id, ci))
    pairs.sort()
    by_id = {t.id: t for t in tracks}
    for d, tid, ci in pairs:
        if tid in matched_tracks or ci in used_clusters:
            continue
        track, cluster = by_id[tid], dynamic_clusters[ci]
        shift = reference_icp(track.points, cluster.points)
        if np.hypot(*shift) / dt > V_MAX_GATE:
            continue
        matched_tracks.add(tid)
        used_clusters.add(ci)
        frames, base_points = track.history[0]
        base_shift = (shift if frames == 1
                      else reference_icp(base_points, cluster.points))
        track.velocity_estimate = estimate_velocity(track, base_shift, dt,
                                                    frames)
        track.closest_point = cluster.closest_point.copy()
        track.points = cluster.points.copy()
        track.history.append((0, cluster.points.copy()))
        track.age += 1
        track.observations += 1
        track.misses = 0
        out.append(track)
    for ci, c in enumerate(dynamic_clusters):
        if ci not in used_clusters:
            out.append(tracker._new_track(c))
    for t in tracks:
        if t.id in matched_tracks:
            continue
        t.misses += 1
        if t.misses > GRACE_STEPS:
            continue
        t.age += 1
        t.closest_point = t.closest_point + t.velocity_estimate * dt
        t.points = t.points + t.velocity_estimate * dt
        out.append(t)
    for t in out:
        t.history = [(frames + 1, pts) for frames, pts in t.history
                     if frames + 1 <= VELOCITY_BASELINE_STEPS]
    tracker.tracks = out


class ReferenceEnv(NavEnv):
    """NavEnv sensing the way it did before the batched pass: each active
    robot in turn raycasts, draws its noise, clusters its scan and updates
    its own tracker."""

    def _sense(self):
        for i, robot in enumerate(self.world.robots):
            if robot.status != Status.ACTIVE:
                continue
            scan = LidarScan(ranges=reference_raycast(self.world, i),
                             timestamp=self.world.sim_time)
            if self.cfg.noise.enabled:
                scan = apply_lidar_noise(scan, self.lidar_rng)
            self.histories[i].push(scan)
            reference_update(self.trackers[i], scan,
                             (*robot.position, robot.heading), self.grid,
                             self.world.config.dt)


def track_state(tracker):
    return [(t.id, t.age, t.misses, t.observations,
             t.closest_point.tobytes(), t.points.tobytes(),
             t.velocity_estimate.tobytes(),
             [(f, p.tobytes()) for f, p in t.history])
            for t in tracker.tracks]


class TestBatchedUpdateMatchesReference:
    @pytest.mark.parametrize("kind,agents,seed,noise", [
        (Kind.DOORWAY, 10, 3, False), (Kind.CIRCLE, 20, 0, True)])
    def test_tracks_and_observations_byte_identical(self, kind, agents, seed,
                                                    noise):
        spec = eval_suite(kind, agents, rng_seed=seed)
        cfg = EnvConfig(noise=NoiseConfig() if noise else NoiseConfig.disabled())
        scenario = generate(spec)
        envs = [cls(spec, cfg, seed=seed) for cls in (NavEnv, ReferenceEnv)]
        obs = [env.reset(scenario) for env in envs]
        ctrl = StraightController()
        matched = 0
        for step in range(12):
            for i in range(agents):
                got, want = (track_state(env.trackers[i]) for env in envs)
                assert got == want, (step, i)
                matched += sum(t.age > 1 and t.misses == 0
                               for t in envs[0].trackers[i].tracks)
            for a, b in zip(*obs):
                assert (a is None) == (b is None)
                if a is not None:
                    for x, y in ((a.o_z, b.o_z), (a.o_g, b.o_g),
                                 (a.o_v, b.o_v), (a.o_gp, b.o_gp),
                                 (a.o_c.nodes, b.o_c.nodes)):
                        assert x.tobytes() == y.tobytes()
                    assert a.world_diameter == b.world_diameter
            for env in envs:
                env.step(ctrl.act(env, None))
            obs = [env.observations() for env in envs]
        assert matched > 0               # the comparison saw matched tracks
        assert (envs[0].lidar_rng.bit_generator.state
                == envs[1].lidar_rng.bit_generator.state)


    def test_one_call_equals_per_observer_references(self):
        # six moving robots among walls and circles: one update_trackers
        # call per frame against one reference_update per observer
        rng = np.random.default_rng(83)
        w = random_world(rng, 6, 2, 2)
        grid = rasterize(w.config)
        static = NearTable(grid, STATIC_MARGIN)
        batched = [Tracker() for _ in w.robots]
        references = [Tracker() for _ in w.robots]
        velocities = rng.uniform(-0.5, 0.5, (6, 2))
        noise = [np.random.default_rng(5) for _ in range(2)]
        matched = 0
        for frame in range(15):
            live = [i for i in range(6) if i != frame % 7]
            poses = np.array([(*w.robots[i].position, w.robots[i].heading)
                              for i in live])
            ranges = noisy_ranges(raycast_batch(w, live), noise[0])
            update_trackers([batched[i] for i in live], ranges, poses, static,
                            0.1)
            for i, pose in zip(live, poses):
                scan = LidarScan(ranges=reference_raycast(w, i), timestamp=0.0)
                reference_update(references[i],
                                 apply_lidar_noise(scan, noise[1]),
                                 tuple(pose), grid, 0.1)
            for got, want in zip(batched, references):
                assert track_state(got) == track_state(want), frame
                matched += sum(t.age > 1 and t.misses == 0 for t in got.tracks)
            for r, v in zip(w.robots, velocities):
                r.position = r.position + 0.1 * v
        assert matched > 0


class TestClosedLoopFidelity:
    def test_two_robot_crossing_velocity_rms(self):
        # both robots move; each tracks the other; RMS error < 0.15 m/s
        # (paths cross 0.7 m apart at closest approach, no collision)
        w = make_world([(-1.5, 0.0, 0.0), (1.0, -1.5, math.pi / 2)])
        near = empty_near()
        trackers = [Tracker(), Tracker()]
        truths = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
        dt = 0.1
        sq_errs = []
        for step in range(50):
            for i in range(2):
                pose = (*w.robots[i].position, w.robots[i].heading)
                trackers[i].update(raycast(w, i), pose, near, dt)
                if step >= 5:
                    dyn = trackers[i].dynamic_tracks()
                    assert len(dyn) == 1
                    err = dyn[0].velocity_estimate - truths[1 - i]
                    sq_errs.append(err @ err)
            w.step([Action(0.5, 0.0), Action(0.5, 0.0)])
        rms = math.sqrt(np.mean(sq_errs))
        assert rms < 0.15


class TestPolarRoundTrip:
    def test_closest_point_round_trips(self):
        # a track's graph node (distance, bearing) maps back onto its
        # closest point
        rng = np.random.default_rng(66)
        history = ScanHistory()
        history.push(LidarScan(np.full(N_BEAMS, MAX_RANGE), 0.0))
        for _ in range(100):
            pos = rng.uniform(-5, 5, 2)
            w = make_world([(*pos, rng.uniform(-math.pi, math.pi))])
            heading = w.robots[0].heading
            point = rng.uniform(-5, 5, 2)
            track = ClusterTrack(id=0, closest_point=point,
                                 velocity_estimate=np.zeros(2))
            d, b = build_observation(w, 0, history, [track],
                                     None).o_c.nodes[0, :2]
            back = pos + d * np.array([math.cos(heading + b), math.sin(heading + b)])
            assert np.allclose(back, point, atol=1e-9)
