import json
import math

import numpy as np
import pytest

from multinav.geometry import Circle, Wall, wrap_angle
from multinav.lidar import raycast_batch
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import GeneratedScenario, Kind, ScenarioSpec
from multinav.sim import (Action, ActionArity, NonFiniteAction, Status,
                          World, WorldConfig, clamp_action, integrate,
                          trajectory_record)


def make_world(starts, goals, **kwargs):
    cfg = WorldConfig(**kwargs)
    return World(cfg, starts, goals)


class TestClampAction:
    def test_clips_to_bounds(self):
        a = clamp_action(Action(1.5, -2.0))
        assert (a.v, a.w) == (1.0, -1.0)

    def test_prohibits_backward(self):
        a = clamp_action(Action(-0.5, 0.0))
        assert (a.v, a.w) == (0.0, 0.0)

    def test_in_range_identity(self):
        a = clamp_action(Action(0.3, 0.3))
        assert (a.v, a.w) == (0.3, 0.3)

    @pytest.mark.parametrize("v,w", [(math.nan, 0.0), (0.5, math.inf), (-math.inf, 0.0)])
    def test_non_finite_raises(self, v, w):
        with pytest.raises(NonFiniteAction):
            clamp_action(Action(v, w))


def unicycle_rk4(x, y, th, v, w, dt, substeps=100):
    """Independent oracle: RK4 on the unicycle ODE at dt/substeps."""
    h = dt / substeps
    for _ in range(substeps):
        def f(state):
            return np.array([v * math.cos(state[2]), v * math.sin(state[2]), w])
        s = np.array([x, y, th])
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        x, y, th = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x, y, th


def integrated(robot, action):
    """The robot view after integrate has moved it for 0.1 s."""
    integrate(robot, action, 0.1)
    return robot


class TestIntegrate:
    def robot(self, x=0.0, y=0.0, th=0.0):
        return make_world([(x, y, th)], [(0.0, 0.0)]).robots[0]

    def test_straight_line(self):
        s = integrated(self.robot(), Action(1.0, 0.0))
        assert np.allclose(s.position, [0.1, 0.0])
        assert s.heading == 0.0

    def test_pure_rotation(self):
        s = integrated(self.robot(), Action(0.0, 1.0))
        assert np.allclose(s.position, [0.0, 0.0])
        assert s.heading == pytest.approx(0.1)

    def test_arc_closed_form(self):
        # frozen from the closed-form arc integral at v=w=1, dt=0.1
        s = integrated(self.robot(), Action(1.0, 1.0))
        assert s.position[0] == pytest.approx(0.09983341664682815, abs=1e-15)
        assert s.position[1] == pytest.approx(0.004995834721974231, abs=1e-15)
        assert s.heading == pytest.approx(0.1)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, 2)
            th = rng.uniform(-math.pi, math.pi)
            v = rng.uniform(0, 1)
            w = rng.uniform(-1, 1)
            s = integrated(self.robot(x, y, th), Action(v, w))
            ox, oy, oth = unicycle_rk4(x, y, th, v, w, 0.1)
            assert abs(s.position[0] - ox) < 1e-9
            assert abs(s.position[1] - oy) < 1e-9
            assert abs(wrap_angle(s.heading - oth)) < 1e-9

    def test_updates_commanded_velocities(self):
        s = integrated(self.robot(), Action(0.7, -0.3))
        assert (s.linear_velocity, s.angular_velocity) == (0.7, -0.3)

    def test_heading_stays_wrapped(self):
        s = self.robot(th=math.pi - 0.01)
        for _ in range(100):
            s = integrated(s, Action(0.0, 1.0))
            assert -math.pi < s.heading <= math.pi


class TestMinSeparation:
    def test_two_robots_apart(self):
        w = make_world([(0, 0, 0), (1.0, 0, 0)], [(5, 5), (6, 6)])
        assert w.min_separation(0) == pytest.approx(0.5)  # 1.0 - 2*0.25

    def test_two_robots_penetrating(self):
        w = make_world([(0, 0, 0), (0.4, 0, 0)], [(5, 5), (6, 6)])
        assert w.min_separation(0) == pytest.approx(-0.1)  # 0.4 - 0.5

    def test_single_robot_empty_world(self):
        w = make_world([(0, 0, 0)], [(5, 5)])
        assert w.min_separation(0) == math.inf

    def test_circle_obstacle(self):
        w = make_world([(0, 0, 0)], [(5, 5)], circles=[Circle(2.0, 0.0, 0.5)])
        assert w.min_separation(0) == pytest.approx(2.0 - 0.5 - 0.25)

    def test_wall_obstacle(self):
        w = make_world([(0, 0, 0)], [(5, 5)],
                       walls=[Wall(1.0, -2.0, 1.0, 2.0, thickness=0.2)])
        # wall surface at x = 0.9, robot radius 0.25
        assert w.min_separation(0) == pytest.approx(0.9 - 0.25)


class TestStep:
    def test_zero_actions_keep_positions(self):
        w = make_world([(0, 0, 0), (3, 0, 0)], [(5, 5), (6, 6)])
        rep = w.step([Action(0, 0), Action(0, 0)])
        assert rep.statuses == [Status.ACTIVE, Status.ACTIVE]
        assert np.allclose(w.robots[0].position, [0, 0])
        assert np.allclose(w.robots[1].position, [3, 0])

    def test_goal_reach_threshold(self):
        w = make_world([(0, 0, 0)], [(0.05, 0.0)], goal_tolerance=0.1)
        rep = w.step([Action(0, 0)])
        assert rep.statuses[0] == Status.REACHED_GOAL

    def test_head_on_collision(self):
        w = make_world([(0, 0, 0), (2.0, 0, math.pi)], [(5, 0), (-5, 0)])
        for _ in range(200):
            rep = w.step([Action(1.0, 0.0), Action(1.0, 0.0)])
            if w.all_done:
                break
        assert rep.statuses == [Status.COLLIDED, Status.COLLIDED]
        # both froze on the penetrating step: centers closed at 0.2 m/step
        gap = np.hypot(*(w.robots[0].position - w.robots[1].position))
        assert gap < 0.5

    def test_action_arity(self):
        w = make_world([(0, 0, 0), (3, 0, 0)], [(5, 5), (6, 6)])
        with pytest.raises(ActionArity):
            w.step([Action(0, 0)])

    def test_stuck_at_time_limit(self):
        w = make_world([(0, 0, 0)], [(9, 9)], max_episode_time=0.5)
        for _ in range(5):
            rep = w.step([Action(0, 0)])
        assert rep.statuses[0] == Status.STUCK
        assert rep.sim_time == pytest.approx(0.5)

    def test_frozen_after_terminal(self):
        w = make_world([(0, 0, 0)], [(0.05, 0)], goal_tolerance=0.1)
        w.step([Action(0, 0)])
        pos = w.robots[0].position.copy()
        for _ in range(10):
            w.step([Action(1.0, 0.5)])
        assert np.array_equal(w.robots[0].position, pos)
        assert w.robots[0].status == Status.REACHED_GOAL

    def test_sim_time_tracks_steps(self):
        w = make_world([(0, 0, 0)], [(9, 9)])
        for _ in range(7):
            w.step([Action(0, 0)])
        assert w.sim_time == pytest.approx(7 * w.config.dt)


class TestDeterminismAndSymmetry:
    def run_stream(self, starts, goals, actions_per_step):
        w = make_world(starts, goals)
        traj = []
        for acts in actions_per_step:
            w.step(acts)
            traj.append(np.concatenate([r.position for r in w.robots]
                                       + [[r.heading] for r in w.robots]))
        return np.array(traj)

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(3)
        acts = [[Action(rng.uniform(0, 1), rng.uniform(-1, 1)) for _ in range(2)]
                for _ in range(40)]
        starts = [(0, 0, 0.3), (2, 1, -1.0)]
        goals = [(8, 8), (-8, -8)]
        t1 = self.run_stream(starts, goals, acts)
        t2 = self.run_stream(starts, goals, acts)
        assert np.array_equal(t1, t2)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(4)
        acts = [[Action(rng.uniform(0, 1), rng.uniform(-1, 1)) for _ in range(3)]
                for _ in range(30)]
        starts = [(0, 0, 0.0), (2, 1, 1.0), (-1, 2, -2.0)]
        goals = [(8, 8), (-8, -8), (0, 8)]
        perm = [2, 0, 1]
        t1 = self.run_stream(starts, goals, acts)
        t2 = self.run_stream([starts[p] for p in perm], [goals[p] for p in perm],
                             [[a[p] for p in perm] for a in acts])
        # positions of robot p in the permuted run match robot perm[p] originally
        for step in range(len(acts)):
            orig = t1[step][:6].reshape(3, 2)
            permuted = t2[step][:6].reshape(3, 2)
            for new_i, old_i in enumerate(perm):
                assert np.array_equal(permuted[new_i], orig[old_i])


class TestRobotStateView:
    """world.robots[i] is a view of the world's arrays: what is written
    through it is what every reader of the world sees."""

    def test_assigned_position_reaches_every_reader(self):
        scenario = GeneratedScenario(
            WorldConfig(bounds=(-5, -5, 5, 5)),
            [(0.0, 0.0, 0.0), (3.0, 3.0, 0.0), (-3.0, 3.0, 0.0)],
            [(4.0, 0.0), (3.0, -3.0), (-3.0, -3.0)])
        env = NavEnv(ScenarioSpec(kind=Kind.RANDOM, scale=10.0, num_agents=3),
                     EnvConfig(build_observations=False))
        env.reset(scenario)
        world = env.world
        world.robots[1].position = np.array([1.0, 0.0])
        assert world.positions[1].tolist() == [1.0, 0.0]
        assert world.min_separation(0) == pytest.approx(0.5)
        # beam 0 looks along +x at the disc's near surface
        assert raycast_batch(world, [0])[0, 0] == pytest.approx(0.75)
        positions, _, _ = env.noisy_neighbor_states([0])
        assert positions[0, 0].tolist() == [1.0, 0.0]

    def test_position_read_before_step_keeps_its_value(self):
        w = make_world([(0, 0, 0)], [(9, 9)])
        before = w.robots[0].position
        w.step([Action(1.0, 0.0)])
        assert before.tolist() == [0.0, 0.0]
        assert w.robots[0].position.tolist() == pytest.approx([0.1, 0.0])

    def test_stuck_through_the_view_ends_the_episode(self):
        w = make_world([(0, 0, 0), (3, 0, 0)], [(5, 5), (6, 6)])
        assert not w.all_done
        for robot in w.robots:
            robot.status = Status.STUCK
        assert w.all_done
        assert w.statuses == [Status.STUCK, Status.STUCK]

    def test_trajectory_record_json(self):
        w = make_world([(0.0, 0.0, 0.3), (2.0, 1.0, -2.5)],
                       [(4.0, 4.0), (-4.0, -2.0)])
        for _ in range(5):
            rep = w.step([Action(0.8, 0.4), Action(0.6, -0.7)])
        got = [json.dumps(trajectory_record(w, 1, 5, Action(0.6, -0.7),
                                            float(rep.d_min[1])),
                          sort_keys=True),
               json.dumps(trajectory_record(w, 0, 5, None, math.inf),
                          sort_keys=True)]
        # recorded from the per-robot dataclass this view replaced
        assert got == [
            '{"action_v": 0.6, "action_w": -0.7, "agent": 1, '
            '"d_min": 1.0392684104764243, "status": "active", "step": 5, '
            '"t": 0.5, "theta": -2.849999999999999, '
            '"x": 1.7334336013473617, "y": 0.8657340382804374}',
            '{"action_v": null, "action_w": null, "agent": 0, '
            '"d_min": null, "status": "active", "step": 5, "t": 0.5, '
            '"theta": 0.5000000000000001, "x": 0.36781066388572714, '
            '"y": 0.15550785447046667}']


class TestWorldConfigJson:
    def test_round_trip(self):
        cfg = WorldConfig(dt=0.05, bounds=(-7, -7, 7, 7),
                          circles=[Circle(1, 2, 0.5)],
                          walls=[Wall(0, 0, 0, 3, 0.2)],
                          max_episode_time=60.0,
                          robot_radius=0.3, goal_tolerance=0.15)
        back = WorldConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_loads_json_with_the_retired_rng_seed_key(self):
        doc = {**WorldConfig().to_dict(), "rng_seed": 42}
        assert "rng_seed" not in WorldConfig().to_dict()
        assert WorldConfig.from_dict(doc) == WorldConfig()

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            WorldConfig(dt=0.0)
