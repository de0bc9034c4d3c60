import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from multinav import ppo, rollout, tracker
from multinav.bench import (JsonlLogger, LogFlags, OrcaController,
                            PolicyController, StraightController, run_episode)
from multinav.observations import AblationConfig, NoiseConfig
from multinav.ppo import TrainConfig, evaluate_policy, train
from multinav.policy import ActorCritic, NumericalDivergence, PolicyConfig
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import (GeneratedScenario, Kind, ScenarioSpec,
                                eval_suite, generate)
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
        assert obs[0].o_z.shape == (3, 120)

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
        env.step([(1.0, 0.0)])
        target = env.target_point(0).position
        goal = env.world.robots[0].goal
        # running target sits on the path ahead, not at the far goal
        d_goal = np.hypot(*(env.world.robots[0].position - goal))
        d_target = np.hypot(*(env.world.robots[0].position - target))
        if d_goal > 1.5:
            assert d_target < d_goal

    def test_logged_observations_are_the_ones_acted_on(self, tmp_path):
        # under state noise, each observation record is the bundle the
        # controller was given, and logging draws no noise and changes no
        # trajectory
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=4.0, num_agents=4,
                            max_episode_time=3.0, rng_seed=3)

        class Recording(PolicyController):
            def act(self, env, obs):
                given.append(obs)
                return super().act(env, obs)

        runs = []
        for flags in (LogFlags(observations=True), LogFlags(), None):
            given = []
            env = NavEnv(spec, EnvConfig(noise=NoiseConfig()), seed=3)
            path = tmp_path / f"{len(runs)}.jsonl"
            logger = None if flags is None else JsonlLogger(str(path), flags)
            run_episode(env, Recording(ActorCritic(TINY_POLICY, seed=0)),
                        logger=logger)
            records = []
            if logger is not None:
                logger.close()
                records = [json.loads(line) for line in open(path)]
            runs.append((env.obs_rng.bit_generator.state,
                         env.world.positions.tobytes(), records, given))

        (state, end, records, given), plain, unlogged = runs
        assert state == plain[0] == unlogged[0]
        assert end == unlogged[1]

        def of_type(records, kind):
            return [r for r in records if r["type"] == kind]

        assert of_type(records, "trajectory") == of_type(plain[2], "trajectory")
        assert not of_type(plain[2], "observation")
        logged = {(r["step"], r["agent"]): r
                  for r in of_type(records, "observation")}
        # the observations built after step s are those acted on at step s + 1
        acted = {(s, i): b for s, obs in enumerate(given) if s > 0
                 for i, b in enumerate(obs) if b is not None}
        assert len(given) > 1 and acted.keys() <= logged.keys()
        assert {s for s, _ in logged.keys() - acted.keys()} <= {len(given)}
        assert any(b.o_c.node_count for b in acted.values())
        for key, b in acted.items():
            rec = logged[key]
            assert rec["node_count"] == b.o_c.node_count
            assert rec["o_g"] == [float(x) for x in b.o_g]
            assert rec["o_gp"] == [float(x) for x in b.o_gp]

    @pytest.mark.parametrize("controller", ["policy", "orca"])
    def test_disabled_noise_draws_nothing(self, controller):
        # with the protocol off, a reset, steps and observations leave all
        # three noise streams untouched; the same run with it on draws from
        # every stream the controller's inputs use (the state feed serves
        # the baselines only)
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=4.0, num_agents=4,
                            rng_seed=3)
        for noise in (NoiseConfig.disabled(), NoiseConfig()):
            ctrl = (PolicyController(ActorCritic(TINY_POLICY, seed=0))
                    if controller == "policy" else OrcaController())
            env = NavEnv(spec, EnvConfig(noise=noise), seed=3)
            rngs = (env.lidar_rng, env.state_rng, env.obs_rng)
            before = [r.bit_generator.state for r in rngs]
            obs = env.reset()
            seen = 0
            for _ in range(5):
                env.step(ctrl.act(env, obs))
                obs = env.observations()
                seen += sum(o.o_c.node_count for o in obs if o is not None)
            assert seen > 0                # observations held neighbours
            drawn = [r.bit_generator.state != b for r, b in zip(rngs, before)]
            if not noise.enabled:
                assert drawn == [False, False, False]
            else:
                assert drawn == [True, controller == "orca", True]

    def test_no_gp_ablation_targets_goal(self):
        env = NavEnv(single_agent_spec(scale=8.0),
                     EnvConfig(ablation=AblationConfig(no_global_path=True)),
                     seed=2)
        env.reset()
        env.step([(1.0, 0.0)])
        assert np.allclose(env.target_point(0).position,
                           env.world.robots[0].goal)

    @pytest.mark.parametrize("controller", ["orca", "straight", "policy"])
    def test_one_running_target_per_active_agent_step(self, controller,
                                                      monkeypatch):
        running_target = rollout.running_target
        calls = []

        def counted(*args):
            calls.append(args)
            return running_target(*args)

        monkeypatch.setattr(rollout, "running_target", counted)
        if controller == "policy":
            ctrl = PolicyController(ActorCritic(TINY_POLICY, seed=0))
        else:
            ctrl = {"orca": OrcaController,
                    "straight": StraightController}[controller]()
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=4.0, num_agents=4,
                            rng_seed=3)
        env = NavEnv(spec, EnvConfig(noise=NoiseConfig(),
                                     build_observations=ctrl.needs_observations),
                     seed=3)
        obs = env.reset()
        assert len(calls) == 4
        for _ in range(40):
            active = sum(env.active())
            calls.clear()
            env.step(ctrl.act(env, obs))
            obs = env.observations()
            assert len(calls) == active

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

    def test_each_episode_splits_on_its_own_grid(self, monkeypatch):
        # one env resets onto a doorway, then onto a field of circles: every
        # static split answers as the scalar occupied_near does on the grid
        # of the episode it runs in, never on a table left from the last one
        calls = []
        split = tracker.split_static

        def recording(clusters, static_near):
            dynamic = split(clusters, static_near)
            calls.append((clusters, dynamic))
            return dynamic

        monkeypatch.setattr(tracker, "split_static", recording)
        env = NavEnv(eval_suite(Kind.DOORWAY, 5), EnvConfig(), seed=0)
        grids = []
        for kind, n in ((Kind.DOORWAY, 5), (Kind.RANDOM, 10)):
            calls.clear()
            env.reset(generate(eval_suite(kind, n, rng_seed=3)))
            for _ in range(3):
                env.step([(0.4, 0.2)] * env.n_agents)
            grids.append(env.grid)
            assert len(calls) == 4

            def static(cluster, grid):
                return all(grid.occupied_near(x, y, tracker.STATIC_MARGIN)
                           for x, y in cluster.points)

            dropped = 0
            for clusters, dynamic in calls:
                for row, kept in zip(clusters, dynamic):
                    want = [c for c in row if not static(c, env.grid)]
                    assert [id(c) for c in kept] == [id(c) for c in want]
                    dropped += len(row) - len(kept)
            assert dropped > 0
        # the second episode's circles are static on its grid, not on the
        # doorway's: a table kept from the doorway would keep them
        assert grids[0] is not grids[1]
        assert any(static(c, grids[1]) and not static(c, grids[0])
                   for clusters, _ in calls for row in clusters for c in row)


PROTOCOL, OFF = (0.1, 0.1), (0.0, 0.0)   # neighbour position, velocity bounds


def _use_bounds(monkeypatch, bounds):
    """Run the neighbour feed at these (position, velocity) bounds: OFF
    turns the noise off, any other pair sets the bounds the feed reads."""
    monkeypatch.setattr(rollout, "STATE_POSITION_BOUND", bounds[0])
    monkeypatch.setattr(rollout, "STATE_VELOCITY_BOUND", bounds[1])


def _neighbor_states_reference(env, i, bounds):
    """The per-neighbour loop the array feed replaced: two uniform draws
    per neighbour, position noise first, and none for OFF bounds."""
    out = []
    for j, r in enumerate(env.world.robots):
        if j == i:
            continue
        pos = r.position.copy()
        th = r.heading
        vel = np.array([r.linear_velocity * math.cos(th),
                        r.linear_velocity * math.sin(th)])
        if bounds != OFF:
            pos = pos + env.state_rng.uniform(-bounds[0], bounds[0], 2)
            vel = vel + env.state_rng.uniform(-bounds[1], bounds[1], 2)
        out.append((pos, vel, env.world.config.robot_radius))
    return out


def _feed_envs(bounds, copies):
    """Identical moving circle-7 envs, the noise on unless bounds are OFF,
    the feed's state_rng untouched since reset."""
    spec = ScenarioSpec(kind=Kind.CIRCLE, scale=6.0, num_agents=7,
                        rng_seed=2)
    noise = NoiseConfig(enabled=bounds != OFF)
    envs = []
    for _ in range(copies):
        env = NavEnv(spec, EnvConfig(noise=noise, build_observations=False),
                     seed=9)
        env.reset()
        for _ in range(3):    # moving robots, so velocities are not zero
            env.step([(0.6, 0.4 - 0.1 * k) for k in range(7)])
        envs.append(env)
    return envs


def _assert_feed_matches_reference(fast, slow, observers, bounds):
    pos, vel, radii = fast.noisy_neighbor_states(observers)
    assert pos.shape == vel.shape == (len(observers), 6, 2)
    assert radii.shape == (len(observers), 6)
    for k, i in enumerate(observers):
        want = _neighbor_states_reference(slow, i, bounds)
        assert len(want) == 6
        for p, v, r, (wp, wv, wr) in zip(pos[k], vel[k], radii[k], want):
            assert p.tobytes() == wp.tobytes()
            assert v.tobytes() == wv.tobytes()
            assert r == wr
    assert (fast.state_rng.bit_generator.state
            == slow.state_rng.bit_generator.state)


class TestNoisyNeighborStates:
    @pytest.mark.parametrize("bounds", [PROTOCOL, (0.1, 0.0), (0.0, 0.2),
                                        OFF, (0.37, 0.011)])
    def test_matches_per_neighbour_draws(self, bounds, monkeypatch):
        _use_bounds(monkeypatch, bounds)
        fast, slow = _feed_envs(bounds, 2)
        # twice per world state, all observers then a subset (robots that
        # stopped acting are seen but do not observe), then again after a
        # step
        for k in range(3):
            for observers in (list(range(7)), [0, 2, 5]):
                _assert_feed_matches_reference(fast, slow, observers, bounds)
            for env in (fast, slow):
                env.step([(0.3 + 0.1 * k, 0.2 - 0.1 * j) for j in range(7)])
        # and after a reset
        for env in (fast, slow):
            env.noisy_neighbor_states([0])
            env.reset()
        _assert_feed_matches_reference(fast, slow, list(range(7)), bounds)

    @pytest.mark.parametrize("bounds", [OFF, (0.1, 0.0), (0.0, 0.2),
                                        PROTOCOL])
    def test_one_draw_equals_per_observer_draws(self, bounds, monkeypatch):
        _use_bounds(monkeypatch, bounds)
        batch, single = _feed_envs(bounds, 2)
        observers = [1, 3, 4, 6]
        got = batch.noisy_neighbor_states(observers)
        for k, i in enumerate(observers):
            want = single.noisy_neighbor_states([i])
            for g, w in zip(got, want):
                assert g[k].tobytes() == w[0].tobytes()
        assert (batch.state_rng.bit_generator.state
                == single.state_rng.bit_generator.state)

    def test_no_observers_draw_nothing(self):
        env, = _feed_envs(PROTOCOL, 1)
        state = env.state_rng.bit_generator.state
        pos, vel, radii = env.noisy_neighbor_states([])
        assert pos.shape == vel.shape == (0, 6, 2) and radii.shape == (0, 6)
        assert env.state_rng.bit_generator.state == state

    def test_lone_robot_has_no_neighbours(self):
        env = NavEnv(single_agent_spec(), EnvConfig(noise=NoiseConfig(),
                                                    build_observations=False))
        env.reset()
        state = env.state_rng.bit_generator.state
        pos, vel, radii = env.noisy_neighbor_states([0])
        assert pos.shape == vel.shape == (1, 0, 2) and radii.shape == (1, 0)
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


class TestTrainingCurve:
    def test_divergence_keeps_the_rows_made(self, tmp_path, monkeypatch):
        # the curve is written row by row: a run stopped by divergence in
        # its second update keeps the header and the first row, and that
        # row is byte for byte the first row of an uninterrupted run
        cfg = TrainConfig(total_env_steps=300, rollout_length=64,
                          num_parallel_envs=2, minibatch_size=64,
                          ppo_epochs=1, seed=4, eval_every=10**9,
                          eval_episodes=1)
        full = train([single_agent_spec()], cfg, str(tmp_path / "full"),
                     policy_cfg=TINY_POLICY)
        assert len(full.rows) == 3
        calls = []
        update = ppo.ppo_update

        def diverge_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalDivergence("injected")
            return update(*args)

        monkeypatch.setattr(ppo, "ppo_update", diverge_second)
        with pytest.raises(NumericalDivergence):
            train([single_agent_spec()], cfg, str(tmp_path / "cut"),
                  policy_cfg=TINY_POLICY)
        cut = (tmp_path / "cut" / "training_curve.csv").read_bytes()
        whole = open(full.curve_path, "rb").read()
        assert cut.splitlines() == whole.splitlines()[:2]
        assert cut.endswith(b"\r\n")


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
