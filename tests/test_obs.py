import math

import numpy as np
import pytest

from multinav.geometry import Circle
from multinav.lidar import MAX_RANGE, ScanHistory, raycast
from multinav.observations import (AblationConfig, NeighborGraph,
                                   ObservationBundle, apply_state_noise,
                                   build_observation, normalize)
from multinav.planner import TargetPoint, rasterize
from multinav.sim import V_MAX, W_MAX, Action, World, WorldConfig
from multinav.tracker import ClusterTrack, Tracker


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
        grid = rasterize(w.config)
        tracker = Tracker()
        hist = ScanHistory()
        found_at = None
        for step in range(5):
            scan = raycast(w, 0)
            hist.push(scan)
            tracks = tracker.update(scan, (*w.robots[0].position,
                                           w.robots[0].heading), grid, 0.1)
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
            o_c=NeighborGraph(nodes=np.array([[d, bearing, vx, vy]])))

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
                                              [1.1, -2.0, 0.0, 0.3]])))

    def test_max_range_maps_to_one(self):
        b = self.bundle()
        b.o_z[:] = MAX_RANGE
        n = normalize(b, world_diameter=20.0)
        assert np.all(n.z3 == 1.0)

    def test_bearing_minus_pi_maps_to_minus_one(self):
        b = self.bundle()
        b.o_g[1] = -math.pi
        n = normalize(b, world_diameter=20.0)
        assert n.extras[1] == pytest.approx(-1.0)

    def test_full_speed_maps_to_one(self):
        b = self.bundle()
        b.o_v[0] = 1.0
        n = normalize(b, world_diameter=20.0)
        assert n.extras[2] == pytest.approx(1.0)

    def test_round_trip(self):
        # the oracle: normalize's documented inverse, written out
        def denormalize(obs, world_diameter):
            og = np.array([obs.extras[0] * world_diameter,
                           obs.extras[1] * math.pi])
            ov = np.array([obs.extras[2] * V_MAX, obs.extras[3] * W_MAX])
            ogp = np.array([obs.extras[4] * world_diameter,
                            obs.extras[5] * math.pi, obs.extras[6] * math.pi])
            nodes = obs.nodes
            if len(nodes):
                nodes = np.column_stack([
                    nodes[:, 0] * MAX_RANGE, nodes[:, 1] * math.pi,
                    nodes[:, 2] * V_MAX, nodes[:, 3] * V_MAX])
            else:
                nodes = np.zeros((0, 4))
            return ObservationBundle(o_z=obs.z3 * MAX_RANGE, o_g=og, o_v=ov,
                                     o_gp=ogp, o_c=NeighborGraph(nodes=nodes))

        b = self.bundle()
        back = denormalize(normalize(b, 20.0), 20.0)
        assert np.allclose(back.o_z, b.o_z, atol=1e-9)
        assert np.allclose(back.o_g, b.o_g, atol=1e-9)
        assert np.allclose(back.o_v, b.o_v, atol=1e-9)
        assert np.allclose(back.o_gp, b.o_gp, atol=1e-9)
        assert np.allclose(back.o_c.nodes, b.o_c.nodes, atol=1e-9)

    def test_all_finite_on_real_scene(self):
        w = make_world([(0, 0, 0), (2, 0, 0)])
        b = build_observation(w, 0, history_for(w), [dyn_track(1, 1, 0.2, 0)],
                              TargetPoint(np.array([1.0, 0]), 0.0, 1))
        n = normalize(b, 20.0)
        assert np.isfinite(n.z3).all()
        assert np.isfinite(n.extras).all()
        assert np.isfinite(n.nodes).all()
