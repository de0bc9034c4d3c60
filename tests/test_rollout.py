import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from multinav.observations import AblationConfig, NoiseConfig, normalize
from multinav.ppo import TrainConfig, evaluate_policy, train
from multinav.policy import NumericalDivergence, PolicyConfig
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import GeneratedScenario, Kind, ScenarioSpec, generate
from multinav.sim import Status

TINY_POLICY = PolicyConfig(conv_channels=(3, 4), conv_kernel=3, node_hidden=6,
                           attention_heads=2, attention_head_dim=3,
                           score_dim=5, trunk=(12, 12))


def single_agent_spec(**kw):
    base = dict(kind=Kind.RANDOM, scale=5.0, num_agents=1, num_obstacles=0,
                max_episode_time=8.0, rng_seed=0)
    base.update(kw)
    return ScenarioSpec(**base)


class TestNavEnv:
    def test_reset_provides_observations(self):
        env = NavEnv(single_agent_spec(), seed=1)
        obs = env.reset()
        assert len(obs) == 1
        assert obs[0] is not None
        assert obs[0].z3.shape == (3, 120)

    def test_frozen_agents_get_none(self):
        spec = single_agent_spec(max_episode_time=0.2)
        env = NavEnv(spec, seed=1)
        env.reset()
        env.step([(0.0, 0.0)])
        env.step([(0.0, 0.0)])
        assert env.world.robots[0].status == Status.STUCK
        assert env.observations() == [None]

    def test_reward_targets_running_point(self):
        env = NavEnv(single_agent_spec(scale=8.0), seed=2)
        env.reset()
        result = env.step([(1.0, 0.0)])
        target = result.targets[0]
        goal = env.world.robots[0].goal
        # running target sits on the path ahead, not at the far goal
        d_goal = np.hypot(*(env.world.robots[0].position - goal))
        d_target = np.hypot(*(env.world.robots[0].position - target))
        if d_goal > 1.5:
            assert d_target < d_goal

    def test_observation_bundle_is_the_one_observed(self):
        # under state noise, the logged bundle must be the one the policy
        # read, and reading it must draw no noise
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=4.0, num_agents=4,
                            rng_seed=3)
        env = NavEnv(spec, EnvConfig(noise=NoiseConfig()), seed=3)
        env.reset()
        env.step([(0.5, 0.0)] * 4)
        obs = env.observations()
        assert any(len(o.nodes) for o in obs)
        state = env.obs_rng.bit_generator.state
        for i, o in enumerate(obs):
            again = normalize(env.observation_bundle(i), env.diameter)
            assert np.array_equal(again.nodes, o.nodes)
            assert np.array_equal(again.extras, o.extras)
        assert env.obs_rng.bit_generator.state == state

    def test_no_gp_ablation_targets_goal(self):
        env = NavEnv(single_agent_spec(scale=8.0),
                     EnvConfig(ablation=AblationConfig(no_global_path=True)),
                     seed=2)
        env.reset()
        result = env.step([(1.0, 0.0)])
        assert np.allclose(result.targets[0], env.world.robots[0].goal)

    def test_records_track_distance_and_outcome(self):
        env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                     seed=3)
        env.reset()
        while not env.done:
            robot = env.world.robots[0]
            to_goal = robot.goal - robot.position
            bearing = math.atan2(to_goal[1], to_goal[0]) - robot.heading
            env.step([(1.0, max(min(2.5 * bearing, 1.0), -1.0))])
        rec = env.records[0]
        assert rec.outcome in ("reached_goal", "stuck")
        assert rec.distance_traveled > 0
        assert rec.travel_time is not None

    def test_same_seed_same_episodes(self):
        def trajectory(seed):
            env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                         seed=seed)
            env.reset()
            out = []
            for _ in range(20):
                env.step([(0.7, 0.3)])
                out.append(env.world.robots[0].position.copy())
            return np.array(out)

        assert np.array_equal(trajectory(5), trajectory(5))
        assert not np.array_equal(trajectory(5), trajectory(6))

    def test_fixed_scenario_replay(self):
        scenario = generate(single_agent_spec(rng_seed=77))
        env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                     seed=0)
        env.reset(scenario)
        assert np.allclose(env.world.robots[0].position, scenario.starts[0][:2])
        doc = GeneratedScenario.from_json(scenario.to_json())
        assert doc.to_dict() == scenario.to_dict()

    def test_json_round_trip_resets_to_the_same_plan(self):
        spec = ScenarioSpec(kind=Kind.DOORWAY, scale=8.0, num_agents=4,
                            rng_seed=5)
        scenario = generate(spec)
        loaded = GeneratedScenario.from_json(scenario.to_json())
        assert loaded.grid is None and loaded.paths is None   # not serialized
        assert loaded == scenario                             # nor compared
        envs = []
        for sc in (scenario, loaded):
            env = NavEnv(spec, EnvConfig(build_observations=False), seed=0)
            env.reset(sc)
            envs.append(env)
        a, b = envs
        assert a.grid.cells.tobytes() == b.grid.cells.tobytes()
        assert (a.grid.origin, a.grid.resolution) == (b.grid.origin, b.grid.resolution)
        assert len(a.paths) == len(b.paths) == 4
        for p, q in zip(a.paths, b.paths):
            assert p.waypoints.tobytes() == q.waypoints.tobytes()
            assert p.cumulative_length.tobytes() == q.cumulative_length.tobytes()


def _neighbor_states_reference(env, i):
    """The per-neighbour loop the array feed replaced: two uniform draws
    per neighbour, position noise first."""
    out = []
    for j, r in enumerate(env.world.robots):
        if j == i:
            continue
        pos = r.position.copy()
        th = r.heading
        vel = np.array([r.linear_velocity * math.cos(th),
                        r.linear_velocity * math.sin(th)])
        nc = env.cfg.noise
        if nc.position_bound > 0.0:
            pos = pos + env.state_rng.uniform(-nc.position_bound,
                                              nc.position_bound, 2)
        if nc.velocity_bound > 0.0:
            vel = vel + env.state_rng.uniform(-nc.velocity_bound,
                                              nc.velocity_bound, 2)
        out.append((pos, vel, r.radius))
    return out


class TestNoisyNeighborStates:
    @pytest.mark.parametrize("bounds", [(0.1, 0.1), (0.1, 0.0), (0.0, 0.2),
                                        (0.0, 0.0), (0.37, 0.011)])
    def test_matches_per_neighbour_draws(self, bounds):
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=6.0, num_agents=7,
                            rng_seed=2)
        noise = NoiseConfig(position_bound=bounds[0], velocity_bound=bounds[1])
        envs = []
        for _ in range(2):
            env = NavEnv(spec, EnvConfig(noise=noise, build_observations=False),
                         seed=9)
            env.reset()
            envs.append(env)
        for env in envs:      # moving robots, so velocities are not zero
            for _ in range(3):
                env.step([(0.6, 0.4 - 0.1 * k) for k in range(7)])
        fast, slow = envs
        for _ in range(2):
            for i in range(7):
                got = fast.noisy_neighbor_states(i)
                want = _neighbor_states_reference(slow, i)
                assert len(got) == len(want) == 6
                for (p, v, r), (wp, wv, wr) in zip(got, want):
                    assert p.tobytes() == wp.tobytes()
                    assert v.tobytes() == wv.tobytes()
                    assert r == wr
        assert fast.state_rng.bit_generator.state == slow.state_rng.bit_generator.state

    def test_lone_robot_has_no_neighbours(self):
        env = NavEnv(single_agent_spec(), EnvConfig(noise=NoiseConfig(),
                                                    build_observations=False))
        env.reset()
        state = env.state_rng.bit_generator.state
        assert env.noisy_neighbor_states(0) == []
        assert env.state_rng.bit_generator.state == state


class TestControllerFailure:
    def test_controller_exception_records_stuck(self):
        class BrokenController:
            needs_observations = False
            name = "broken"

            def act(self, env, obs):
                raise NumericalDivergence("controller blew up")

        from multinav.bench import run_episode
        env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                     seed=0)
        run_episode(env, BrokenController())
        assert env.world.robots[0].status == Status.STUCK

    def test_floating_point_error_records_stuck(self):
        class OverflowingController:
            needs_observations = False
            name = "overflowing"

            def act(self, env, obs):
                with np.errstate(over="raise"):
                    np.float64(1e308) * 10.0

        from multinav.bench import run_episode
        env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                     seed=0)
        run_episode(env, OverflowingController())
        assert env.world.robots[0].status == Status.STUCK

    def test_programming_error_propagates(self):
        class BuggyController:
            needs_observations = False
            name = "buggy"

            def act(self, env, obs):
                raise RuntimeError("a bug, not a numerical failure")

        from multinav.bench import run_episode
        env = NavEnv(single_agent_spec(), EnvConfig(build_observations=False),
                     seed=0)
        with pytest.raises(RuntimeError, match="a bug"):
            run_episode(env, BuggyController())

    def test_evaluation_without_a_network_raises(self):
        with pytest.raises(AttributeError):
            evaluate_policy(None, single_agent_spec(), EnvConfig(), 2, 0)


class TestTrainDeterminism:
    def make_cfg(self, seed):
        return TrainConfig(total_env_steps=700, rollout_length=128,
                           num_parallel_envs=2, minibatch_size=128,
                           ppo_epochs=2, seed=seed, lr_actor=1e-4,
                           lr_critic=4e-4, eval_every=10**9, eval_episodes=1)

    def test_same_seed_identical_curves(self, tmp_path):
        spec = single_agent_spec()
        r1 = train([spec], self.make_cfg(4), str(tmp_path / "a"),
                   policy_cfg=TINY_POLICY)
        r2 = train([spec], self.make_cfg(4), str(tmp_path / "b"),
                   policy_cfg=TINY_POLICY)
        assert r1.rows == r2.rows
        assert (open(r1.checkpoint_path, "rb").read()
                == open(r2.checkpoint_path, "rb").read())

    def test_different_seeds_different_curves(self, tmp_path):
        spec = single_agent_spec()
        r1 = train([spec], self.make_cfg(4), str(tmp_path / "a"),
                   policy_cfg=TINY_POLICY)
        r2 = train([spec], self.make_cfg(5), str(tmp_path / "b"),
                   policy_cfg=TINY_POLICY)
        assert r1.rows != r2.rows


class TestScenarioFileCli:
    def test_run_on_saved_scenario(self, tmp_path):
        from multinav.cli import main
        scenario = generate(single_agent_spec(rng_seed=12))
        sf = tmp_path / "scene.json"
        sf.write_text(scenario.to_json())
        out = str(tmp_path / "m.csv")
        code = main(["run", "--scenario-file", str(sf), "--controller",
                     "straight", "--trials", "2", "--out", out])
        assert code == 0
        body = open(out).read()
        assert "file:scene.json" in body

    def test_config_file_with_flag_override(self, tmp_path):
        from multinav.cli import main
        cfg = {"scenario": "random", "agents": 1, "obstacles": 0,
               "controller": "straight", "trials": 1, "scale": 5.0,
               "seed": 3}
        cf = tmp_path / "run.json"
        cf.write_text(json.dumps(cfg))
        out = str(tmp_path / "m.csv")
        assert main(["run", "--config", str(cf), "--out", out]) == 0
        row = open(out).read().splitlines()[1].split(",")
        assert row[0] == "random" and row[3] == "1"
        # flag overrides the config file
        out2 = str(tmp_path / "m2.csv")
        assert main(["run", "--config", str(cf), "--trials", "2",
                     "--out", out2]) == 0
        assert open(out2).read().splitlines()[1].split(",")[3] == "2"

    def test_unknown_config_key_exit_two(self, tmp_path):
        from multinav.cli import main
        cf = tmp_path / "run.json"
        cf.write_text(json.dumps({"controller": "straight", "bogus": 1}))
        assert main(["run", "--config", str(cf)]) == 2
