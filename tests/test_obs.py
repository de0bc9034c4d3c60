import math

import numpy as np
import pytest

from multinav.geometry import Circle
from multinav.lidar import MAX_RANGE, ScanHistory, raycast
from multinav.observations import (N_MAX_NEIGHBORS, AblationConfig,
                                   NeighborGraph, ObservationBundle,
                                   apply_state_noise, build_observation)
from multinav.planner import NearTable, TargetPoint, rasterize
from multinav.policy import BatchedObs, batch_obs
from multinav.sim import V_MAX, W_MAX, Action, World, WorldConfig
from multinav.tracker import STATIC_MARGIN, ClusterTrack, Tracker


def make_world(robots, circles=(), goal=(5.0, 0.0)):
    cfg = WorldConfig(bounds=(-10, -10, 10, 10), circles=list(circles))
    return World(cfg, robots, [goal] * len(robots))


def history_for(world, idx=0):
    h = ScanHistory()
    h.push(raycast(world, idx))
    return h


def dyn_track(x, y, vx, vy):
    return ClusterTrack(id=0, closest_point=np.array([x, y]),
                        velocity_estimate=np.array([vx, vy]), observations=3)


def bundle_of(z3, extras, nodes, world_diameter=20.0):
    """A bundle whose policy inputs are, up to rounding, the unit-scaled z3
    (3, beams), extras (7,) and nodes (n, 4) given."""
    d = world_diameter
    return ObservationBundle(
        o_z=z3 * MAX_RANGE, o_g=extras[:2] * [d, math.pi],
        o_v=extras[2:4] * [V_MAX, W_MAX],
        o_gp=extras[4:] * [d, math.pi, math.pi],
        o_c=NeighborGraph(nodes=nodes * [MAX_RANGE, math.pi, V_MAX, V_MAX]),
        world_diameter=d)


def reference_normalize(bundle, world_diameter):
    """The per-agent normalize that batch_obs replaced, as (z3, extras,
    nodes): the oracle for its scaling."""
    z3 = bundle.o_z / MAX_RANGE
    og = np.array([bundle.o_g[0] / world_diameter, bundle.o_g[1] / math.pi])
    ov = np.array([bundle.o_v[0] / V_MAX, bundle.o_v[1] / W_MAX])
    ogp = np.array([bundle.o_gp[0] / world_diameter, bundle.o_gp[1] / math.pi,
                    bundle.o_gp[2] / math.pi])
    nodes = bundle.o_c.nodes
    if len(nodes):
        nodes = np.column_stack([nodes[:, 0] / MAX_RANGE, nodes[:, 1] / math.pi,
                                 nodes[:, 2] / V_MAX, nodes[:, 3] / V_MAX])
    else:
        nodes = np.zeros((0, 4))
    return z3, np.concatenate([og, ov, ogp]), nodes


def reference_batch_obs(bundles, world_diameters=None):
    """reference_normalize per bundle, by its own world diameter unless
    others are given, then the per-observation padding batch_obs did."""
    if world_diameters is None:
        world_diameters = [b.world_diameter for b in bundles]
    obs_list = [reference_normalize(b, d)
                for b, d in zip(bundles, world_diameters)]
    b = len(obs_list)
    n = max((len(o[2]) for o in obs_list), default=0)
    z3 = np.stack([o[0] for o in obs_list])
    extras = np.stack([o[1] for o in obs_list])
    nodes = np.zeros((b, n, 4))
    mask = np.zeros((b, n), dtype=bool)
    for i, o in enumerate(obs_list):
        k = len(o[2])
        if k:
            nodes[i, :k] = o[2]
            mask[i, :k] = True
    return BatchedObs(z3=z3, extras=extras, nodes=nodes, mask=mask)


def assert_same_batch(got, want):
    for f in ("z3", "extras", "nodes", "mask"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.shape == b.shape and a.dtype == b.dtype, f
        assert a.flags.c_contiguous, f
        assert a.tobytes() == b.tobytes(), f


class TestBuildObservation:
    def test_goal_dead_ahead(self):
        w = make_world([(0, 0, 0)], goal=(2.0, 0.0))
        b = build_observation(w, 0, history_for(w), [], None)
        assert np.allclose(b.o_g, [2.0, 0.0])

    def test_goal_to_the_left(self):
        w = make_world([(0, 0, 0)], goal=(0.0, 1.0))
        b = build_observation(w, 0, history_for(w), [], None)
        assert b.o_g[0] == pytest.approx(1.0)
        assert b.o_g[1] == pytest.approx(math.pi / 2)

    def test_velocity_component(self):
        w = make_world([(0, 0, 0)])
        w.step([Action(0.7, -0.2)])
        b = build_observation(w, 0, history_for(w), [], None)
        assert np.allclose(b.o_v, [0.7, -0.2])

    def test_target_point_component(self):
        w = make_world([(0, 0, math.pi / 2)], goal=(5.0, 0.0))
        tp = TargetPoint(position=np.array([1.0, 0.0]), path_direction=0.0, index=3)
        b = build_observation(w, 0, history_for(w), [], tp)
        assert b.o_gp[0] == pytest.approx(1.0)
        assert b.o_gp[1] == pytest.approx(-math.pi / 2)  # target to the right
        assert b.o_gp[2] == pytest.approx(-math.pi / 2)  # path dir relative

    def test_neighbor_nodes_body_frame(self):
        w = make_world([(0, 0, math.pi / 2)])
        tracks = [dyn_track(0.0, 2.0, 0.0, 0.5)]  # ahead of the rotated robot
        b = build_observation(w, 0, history_for(w), tracks, None)
        assert b.o_c.node_count == 1
        d, bearing, vx, vy = b.o_c.nodes[0]
        assert d == pytest.approx(2.0)
        assert bearing == pytest.approx(0.0)
        assert (vx, vy) == (pytest.approx(0.5), pytest.approx(0.0))

    def test_ablation_no_gnn_empties_graph(self):
        w = make_world([(0, 0, 0)])
        tracks = [dyn_track(1.0, 0.0, 0.1, 0.0)]
        b = build_observation(w, 0, history_for(w), tracks, None,
                              ablation=AblationConfig(no_gnn=True))
        assert b.o_c.node_count == 0

    def test_ablation_names(self):
        assert AblationConfig.from_name("drl-nav") == AblationConfig(
            no_global_path=True, no_gnn=True)
        assert AblationConfig.from_name("none") == AblationConfig()
        for name in ("drl_nav", "no-gp,no-gnn", "DRL-NAV"):
            with pytest.raises(ValueError, match="unknown ablation"):
                AblationConfig.from_name(name)

    def test_ablation_no_gp_zeroes_path(self):
        w = make_world([(0, 0, 0)])
        tp = TargetPoint(position=np.array([1.0, 1.0]), path_direction=0.3, index=2)
        b = build_observation(w, 0, history_for(w), [], tp,
                              ablation=AblationConfig(no_global_path=True))
        assert np.array_equal(b.o_gp, np.zeros(3))

    def test_neighbor_cap_nearest_first(self):
        w = make_world([(0, 0, 0)])
        tracks = [dyn_track(1.0 + 0.1 * k, 0.0, 0, 0) for k in range(20)]
        for i, t in enumerate(tracks):
            t.id = i
        b = build_observation(w, 0, history_for(w), tracks, None)
        assert b.o_c.node_count == 16
        assert b.o_c.nodes[0, 0] == pytest.approx(1.0)

    def test_frame_equivariance(self):
        # translate + rotate the whole scene: bundle unchanged
        rng = np.random.default_rng(71)
        for _ in range(5):
            shift = rng.uniform(-4, 4, 2)
            rot = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(rot), math.sin(rot)
            R = np.array([[c, -s], [s, c]])

            circ = Circle(2.0, 0.5, 0.4)
            goal = np.array([3.0, 1.0])
            tp = TargetPoint(position=np.array([1.5, 0.2]), path_direction=0.4,
                             index=7)
            track = dyn_track(1.0, -0.5, 0.3, 0.1)

            w0 = make_world([(0, 0, 0.3)], circles=[circ], goal=goal)
            b0 = build_observation(w0, 0, history_for(w0), [track], tp)

            c2 = R @ np.array([circ.cx, circ.cy]) + shift
            w1 = make_world([( *(R @ np.zeros(2) + shift), 0.3 + rot)],
                            circles=[Circle(c2[0], c2[1], circ.r)],
                            goal=R @ goal + shift)
            tp1 = TargetPoint(position=R @ tp.position + shift,
                              path_direction=tp.path_direction + rot, index=7)
            track1 = ClusterTrack(id=0, closest_point=R @ track.closest_point + shift,
                                  velocity_estimate=R @ track.velocity_estimate,
                                  observations=3)
            b1 = build_observation(w1, 0, history_for(w1), [track1], tp1)

            assert np.allclose(b0.o_z, b1.o_z, atol=1e-9)
            assert np.allclose(b0.o_g, b1.o_g, atol=1e-9)
            assert np.allclose(b0.o_gp, b1.o_gp, atol=1e-9)
            assert np.allclose(b0.o_c.nodes, b1.o_c.nodes, atol=1e-9)

    def test_two_robot_approach_yields_node(self):
        # closed loop: within 3 steps of visibility the graph is non-empty
        w = make_world([(0, 0, 0), (2.5, 0.0, math.pi)], goal=(5, 0))
        near = NearTable(rasterize(w.config), STATIC_MARGIN)
        tracker = Tracker()
        hist = ScanHistory()
        found_at = None
        for step in range(5):
            scan = raycast(w, 0)
            hist.push(scan)
            tracks = tracker.update(scan, (*w.robots[0].position,
                                           w.robots[0].heading), near, 0.1)
            b = build_observation(w, 0, hist, tracker.dynamic_tracks(), None)
            if b.o_c.node_count >= 1:
                found_at = step
                break
            w.step([Action(0.0, 0.0), Action(0.5, 0.0)])
        assert found_at is not None and found_at <= 3


class TestStateNoise:
    def bundle_with_node(self, d=1.0, bearing=0.0, vx=0.5, vy=0.0):
        return ObservationBundle(
            o_z=np.full((3, 120), MAX_RANGE), o_g=np.array([1.0, 0.0]),
            o_v=np.zeros(2), o_gp=np.zeros(3),
            o_c=NeighborGraph(nodes=np.array([[d, bearing, vx, vy]])),
            world_diameter=20.0)

    def test_uniform_position_bound(self):
        rng = np.random.default_rng(72)
        max_shift = 0.0
        for _ in range(2000):
            out = apply_state_noise(self.bundle_with_node(), rng)
            d, bearing = out.o_c.nodes[0, :2]
            x, y = d * math.cos(bearing), d * math.sin(bearing)
            shift = max(abs(x - 1.0), abs(y))
            max_shift = max(max_shift, shift)
            assert shift <= 0.1 + 1e-12
        assert max_shift > 0.08  # actually exercises the bound

    def test_velocity_stays_in_box(self):
        rng = np.random.default_rng(73)
        for _ in range(2000):
            out = apply_state_noise(self.bundle_with_node(), rng)
            vx, vy = out.o_c.nodes[0, 2:]
            assert 0.4 <= vx <= 0.6
            assert -0.1 <= vy <= 0.1


class TestNormalize:
    def bundle(self):
        rng = np.random.default_rng(74)
        return ObservationBundle(
            o_z=rng.uniform(0.1, MAX_RANGE, (3, 120)),
            o_g=np.array([4.7, -1.2]), o_v=np.array([0.8, -0.4]),
            o_gp=np.array([0.9, 0.5, -2.0]),
            o_c=NeighborGraph(nodes=np.array([[2.5, 0.7, 0.4, -0.2],
                                              [1.1, -2.0, 0.0, 0.3]])),
            world_diameter=20.0)

    def test_max_range_maps_to_one(self):
        b = self.bundle()
        b.o_z[:] = MAX_RANGE
        n = batch_obs([b])
        assert np.all(n.z3 == 1.0)

    def test_bearing_minus_pi_maps_to_minus_one(self):
        b = self.bundle()
        b.o_g[1] = -math.pi
        n = batch_obs([b])
        assert n.extras[0, 1] == pytest.approx(-1.0)

    def test_full_speed_maps_to_one(self):
        b = self.bundle()
        b.o_v[0] = 1.0
        n = batch_obs([b])
        assert n.extras[0, 2] == pytest.approx(1.0)

    def test_round_trip(self):
        # the oracle: the scaling's documented inverse, written out
        def denormalize(obs, world_diameter):
            z3, extras, nodes = obs.z3[0], obs.extras[0], obs.nodes[0]
            og = np.array([extras[0] * world_diameter, extras[1] * math.pi])
            ov = np.array([extras[2] * V_MAX, extras[3] * W_MAX])
            ogp = np.array([extras[4] * world_diameter,
                            extras[5] * math.pi, extras[6] * math.pi])
            if len(nodes):
                nodes = np.column_stack([
                    nodes[:, 0] * MAX_RANGE, nodes[:, 1] * math.pi,
                    nodes[:, 2] * V_MAX, nodes[:, 3] * V_MAX])
            else:
                nodes = np.zeros((0, 4))
            return ObservationBundle(o_z=z3 * MAX_RANGE, o_g=og, o_v=ov,
                                     o_gp=ogp, o_c=NeighborGraph(nodes=nodes),
                                     world_diameter=world_diameter)

        b = self.bundle()
        back = denormalize(batch_obs([b]), 20.0)
        assert np.allclose(back.o_z, b.o_z, atol=1e-9)
        assert np.allclose(back.o_g, b.o_g, atol=1e-9)
        assert np.allclose(back.o_v, b.o_v, atol=1e-9)
        assert np.allclose(back.o_gp, b.o_gp, atol=1e-9)
        assert np.allclose(back.o_c.nodes, b.o_c.nodes, atol=1e-9)

    def test_all_finite_on_real_scene(self):
        w = make_world([(0, 0, 0), (2, 0, 0)])
        b = build_observation(w, 0, history_for(w), [dyn_track(1, 1, 0.2, 0)],
                              TargetPoint(np.array([1.0, 0]), 0.0, 1))
        n = batch_obs([b])
        assert np.isfinite(n.z3).all()
        assert np.isfinite(n.extras).all()
        assert np.isfinite(n.nodes).all()


def random_bundle(rng, k, world_diameter):
    """Seeded bundle with k nodes; about one entry in five of o_g, o_v,
    o_gp and the nodes is +0.0 or -0.0."""
    def signed_zeros(x):
        hit = rng.random(x.shape) < 0.2
        return np.where(hit, np.copysign(0.0, rng.normal(size=x.shape)), x)

    return ObservationBundle(
        o_z=rng.uniform(0.1, MAX_RANGE, (3, 120)),
        o_g=signed_zeros(rng.normal(size=2) * [5.0, 2.0]),
        o_v=signed_zeros(rng.uniform(-1.0, 1.0, 2)),
        o_gp=signed_zeros(rng.normal(size=3) * [3.0, 2.0, 2.0]),
        o_c=NeighborGraph(nodes=signed_zeros(rng.normal(size=(k, 4)))),
        world_diameter=world_diameter)


class TestBatchObsMatchesReference:
    """batch_obs against the per-agent reference_normalize plus padding:
    byte-equal z3, extras, nodes and mask."""

    @pytest.mark.parametrize("b", [1, 8, 40])
    def test_random_bundles_byte_equal(self, b):
        rng = np.random.default_rng(500 + b)
        zeros = {False: 0, True: 0}
        for trial in range(N_MAX_NEIGHBORS + 1 if b == 1 else 6):
            counts = rng.integers(0, N_MAX_NEIGHBORS + 1, b)
            if b == 1:
                counts[0] = trial          # one-row batches of 0..16 nodes
            else:
                counts[:2] = 0, N_MAX_NEIGHBORS
            diameters = rng.uniform(5.0, 40.0, b)
            bundles = [random_bundle(rng, int(k), float(d))
                       for k, d in zip(counts, diameters)]
            want = reference_batch_obs(bundles)
            assert_same_batch(batch_obs(bundles), want)
            assert want.nodes.shape[1] == counts.max()
            for x in (want.extras, want.nodes):
                zero = x == 0.0
                zeros[False] += int((zero & ~np.signbit(x)).sum())
                zeros[True] += int((zero & np.signbit(x)).sum())
        assert zeros[False] and zeros[True]    # both signed zeros were scaled

    def test_worlds_of_different_bounds_in_one_batch(self):
        # the mix one training batch holds when its envs differ in size;
        # each row scales by the diameter of its own world's bounds
        rng = np.random.default_rng(75)
        bundles, diameters = [], []
        for bounds in ((-10, -10, 10, 10), (0.0, 0.0, 7.5, 4.0),
                       (-3.0, -2.0, 5.0, 6.5)):
            xmin, ymin, xmax, ymax = bounds
            world = World(WorldConfig(bounds=bounds),
                          [(xmin + 1.0, ymin + 1.0, 0.3),
                           (xmin + 2.5, ymin + 1.5, 2.0)],
                          [(xmax - 1.0, ymax - 1.0)] * 2)
            for i in range(2):
                tracks = [dyn_track(*rng.uniform(-2.0, 2.0, 2),
                                    *rng.uniform(-0.5, 0.5, 2))
                          for _ in range(3 * i)]
                target = TargetPoint(np.array([xmax - 2.0, ymax - 1.5]),
                                     0.7, 2)
                bundles.append(build_observation(
                    world, i, history_for(world, i), tracks, target, rng=rng))
                diameters.append(math.hypot(xmax - xmin, ymax - ymin))
        assert len(set(diameters)) == 3
        assert [b.world_diameter for b in bundles] == diameters
        assert_same_batch(batch_obs(bundles),
                          reference_batch_obs(bundles, diameters))
