import json
from types import SimpleNamespace

import numpy as np
import pytest

from multinav import bench
from multinav.bench import (ConfigError, EpisodeMetrics, LogFlags,
                            OrcaController, PolicyController,
                            StraightController, make_controller, replay_svg,
                            report, run_episode, run_trials)
from multinav.orca import nh_track, orca_planes, preferred_velocity
from multinav.policy import ActorCritic, PolicyConfig, batch_obs
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import Kind, ScenarioSpec, eval_suite
from multinav.sim import Action, Status, clamp_action
from test_obs import bundle_of


def empty_single_agent_spec(scale=15.0, seed=0):
    return ScenarioSpec(kind=Kind.RANDOM, scale=scale, num_agents=1,
                        num_obstacles=0, rng_seed=seed)


class TestRunEpisode:
    def test_straight_single_agent_reaches_goal(self):
        env = NavEnv(empty_single_agent_spec(), EnvConfig(build_observations=False),
                     seed=3)
        run_episode(env, StraightController())
        assert env.world.robots[0].status == Status.REACHED_GOAL

    def test_stuck_when_commanding_zero(self):
        class FreezeController:
            needs_observations = False
            name = "freeze"

            def act(self, env, obs):
                return [(0.0, 0.0)] * env.n_agents

        spec = empty_single_agent_spec()
        spec.max_episode_time = 2.0
        env = NavEnv(spec, EnvConfig(build_observations=False), seed=3)
        run_episode(env, FreezeController())
        assert env.world.robots[0].status == Status.STUCK
        assert env.world.sim_time == pytest.approx(2.0)

    def test_two_robot_head_on_straight_collides(self):
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=6.0, num_agents=2, rng_seed=0)
        env = NavEnv(spec, EnvConfig(build_observations=False), seed=0)
        run_episode(env, StraightController())
        assert all(r.status == Status.COLLIDED for r in env.world.robots)


class TestPolicyController:
    def test_acts_without_the_critic(self, monkeypatch):
        net = ActorCritic(PolicyConfig.reduced(), seed=2)
        rng = np.random.default_rng(5)
        obs = [bundle_of(z3=rng.uniform(0.1, 1.0, (3, 120)),
                         extras=rng.uniform(-1, 1, 7),
                         nodes=rng.uniform(-1, 1, (k, 4)))
               for k in (0, 3, 3, 0)]
        obs.insert(2, None)                    # a robot that no longer acts
        live = [o for o in obs if o is not None]
        mean, _, _ = net.forward_batch(batch_obs(live))
        want = [clamp_action(Action(float(m[0]), float(m[1]))) for m in mean]

        def no_critic(batch):
            raise AssertionError("acting ran the critic")

        monkeypatch.setattr(net.critic, "forward", no_critic)
        raws = PolicyController(net).act(SimpleNamespace(n_agents=len(obs)),
                                         obs)
        assert raws[2] is None
        got = [r for r in raws if r is not None]
        assert (np.array(got).tobytes()
                == np.array([(a.v, a.w) for a in want]).tobytes())

    def test_sampling_is_refused(self):
        net = ActorCritic(PolicyConfig.reduced(), seed=2)
        assert PolicyController(net, deterministic=True).net is net
        with pytest.raises(ValueError, match="deterministic"):
            PolicyController(net, deterministic=False)

    def run_policy_episode(self, net):
        spec = empty_single_agent_spec(scale=5.0)
        spec.max_episode_time = 2.0
        env = NavEnv(spec, EnvConfig(), seed=4)
        return run_episode(env, PolicyController(net))

    def test_only_a_diverged_actor_strands_the_robots(self):
        clean = self.run_policy_episode(ActorCritic(PolicyConfig.reduced(), seed=1))
        # a NaN value changes nothing the robots do
        net = ActorCritic(PolicyConfig.reduced(), seed=1)
        net.value_head.b[...] = np.nan
        env = self.run_policy_episode(net)
        assert env.world.sim_time == clean.world.sim_time > 0.0
        for a, b in zip(env.world.robots, clean.world.robots):
            assert a.status == b.status
            assert a.position.tobytes() == b.position.tobytes()
        # a NaN mean strands the robots at the first step
        net = ActorCritic(PolicyConfig.reduced(), seed=1)
        net.mean_head.b[...] = np.nan
        env = self.run_policy_episode(net)
        assert env.world.sim_time == 0.0
        assert [r.status for r in env.world.robots] == [Status.STUCK]
        assert [r.outcome for r in env.records] == ["stuck"]


class TestOrcaController:
    def test_one_orca_velocity_call_per_active_robot(self, monkeypatch):
        # the benchmark's ORCA check counts bench.orca_velocity calls against
        # the active robots, and its tracer reads result[1] as feasibility
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=6.0, num_agents=6,
                            rng_seed=4)
        env = NavEnv(spec, EnvConfig(build_observations=False), seed=4)
        env.reset()
        ctrl = OrcaController()
        for _ in range(5):
            env.step(ctrl.act(env, None))
        world = env.world
        world.robots[1].status = Status.REACHED_GOAL
        world.robots[4].status = Status.COLLIDED
        live = [0, 2, 3, 5]
        calls = []
        orca_velocity = bench.orca_velocity

        def counted(planes, preferred):
            result = orca_velocity(planes, preferred)
            calls.append((planes, preferred, result))
            return result

        monkeypatch.setattr(bench, "orca_velocity", counted)
        raws = ctrl.act(env, None)
        assert [i for i, r in enumerate(raws) if r is not None] == live
        assert len(calls) == len(live)
        r = world.config.robot_radius
        for i, (planes, pref, (vel, feasible)) in zip(live, calls):
            # robot i's own lines and preferred velocity, in robot order
            others = [j for j in range(6) if j != i]
            want, = orca_planes(world.positions[[i]], world.velocities[[i]],
                                r, (world.positions[others][None],
                                    world.velocities[others][None],
                                    np.full((1, 5), r)),
                                world.config.circles, world.config.walls,
                                world.config.dt)
            assert planes.rows == want.rows
            assert planes.num_obst == want.num_obst
            pos = world.positions[i]
            want_pref = preferred_velocity(
                pos, env.target_point(i).position,
                goal_distance=float(np.hypot(*(world.goals[i] - pos))))
            assert pref.tobytes() == want_pref.tobytes()
            assert isinstance(feasible, bool)
            assert vel.shape == (2,)
            a = nh_track(vel, float(world.headings[i]))
            assert raws[i] == (a.v, a.w)
        assert any(c[0].rows for c in calls)


class TestRunTrials:
    def test_straight_empty_world_metrics(self):
        m = run_trials(empty_single_agent_spec(), "straight", trials=5,
                       base_seed=10)
        assert m.success_rate == 1.0
        assert m.stuck_rate == 0.0 and m.collision_rate == 0.0
        assert m.extra_time_ratio < 0.02
        assert m.average_speed > 0.95

    def test_outcome_rates_partition(self):
        m = run_trials(ScenarioSpec(kind=Kind.CIRCLE, scale=6.0, num_agents=2),
                       "straight", trials=3, base_seed=0)
        assert m.success_rate + m.stuck_rate + m.collision_rate == pytest.approx(1.0)

    def test_policy_requires_checkpoint(self):
        with pytest.raises(ConfigError):
            run_trials(empty_single_agent_spec(), "policy", trials=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            run_trials(empty_single_agent_spec(), "straight", trials=trials)

    def test_unknown_controller(self):
        with pytest.raises(ConfigError):
            make_controller("teleport")

    def test_worker_pool_matches_serial(self):
        spec = eval_suite(Kind.DOORWAY, 5, rng_seed=0)
        serial = run_trials(spec, "straight", trials=4, base_seed=3, workers=1)
        pooled = run_trials(spec, "straight", trials=4, base_seed=3, workers=2)
        assert serial.csv_row() == pooled.csv_row()

    def test_policy_controller_runs(self, tmp_path):
        ckpt = str(tmp_path / "p.json")
        ActorCritic(PolicyConfig.reduced(), seed=1).save(ckpt)
        spec = empty_single_agent_spec(scale=5.0)
        spec.max_episode_time = 3.0
        m = run_trials(spec, "policy", trials=1, checkpoint=ckpt, base_seed=0)
        assert m.trials == 1  # untrained net: any outcome, but it must run
        assert m.success_rate + m.stuck_rate + m.collision_rate == 1.0


class TestReportCsv:
    def fake_metrics(self, controller="orca", scenario="circle", agents=10):
        return EpisodeMetrics(scenario=scenario, agents=agents,
                              controller=controller, trials=5, seed=0,
                              success_rate=0.9, stuck_rate=0.1,
                              collision_rate=0.0, extra_time_seconds=1.5,
                              extra_time_ratio=0.08, average_speed=0.7)

    def test_empty_list_header_only(self, tmp_path):
        path = str(tmp_path / "m.csv")
        report([], path)
        lines = open(path).read().splitlines()
        assert lines == [",".join(EpisodeMetrics.CSV_FIELDS)]

    def test_single_row_round_trips(self, tmp_path):
        path = str(tmp_path / "m.csv")
        report([self.fake_metrics()], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        parts = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert parts["scenario"] == "circle"
        assert float(parts["success_rate"]) == 0.9
        assert int(parts["agents"]) == 10

    def test_summary_grid_layout(self, tmp_path):
        ms = [self.fake_metrics("orca", "circle", 10),
              self.fake_metrics("straight", "circle", 10),
              self.fake_metrics("orca", "doorway", 5)]
        text = report(ms, str(tmp_path / "m.csv"))
        assert "success_rate" in text
        assert "circle(10)" in text and "doorway(5)" in text
        assert "orca" in text and "straight" in text

    def test_deterministic_bytes(self, tmp_path):
        spec = empty_single_agent_spec()
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        report([run_trials(spec, "straight", trials=3, base_seed=7)], p1)
        report([run_trials(spec, "straight", trials=3, base_seed=7)], p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestExtraTimeConsistency:
    def test_ratio_and_seconds_agree(self):
        m = run_trials(empty_single_agent_spec(), "straight", trials=3,
                       base_seed=2)
        mean_bound = float(np.mean(m.lower_bounds))
        assert m.extra_time_ratio == pytest.approx(
            m.extra_time_seconds / mean_bound)


class TestLoggingAndReplay:
    def test_trajectory_log_and_replay(self, tmp_path):
        log = str(tmp_path / "run.jsonl")
        spec = empty_single_agent_spec(scale=6.0)
        run_trials(spec, "straight", trials=1, base_seed=0, log_path=log,
                   log_flags=LogFlags(paths=True))
        types = set()
        with open(log) as f:
            for line in f:
                types.add(json.loads(line)["type"])
        assert {"header", "trajectory", "path"} <= types
        svg = str(tmp_path / "run.svg")
        replay_svg(log, svg)
        content = open(svg).read()
        assert content.startswith("<svg")
        assert "polyline" in content

    def test_reward_log_components(self, tmp_path):
        log = str(tmp_path / "run.jsonl")
        run_trials(empty_single_agent_spec(scale=6.0), "straight", trials=1,
                   base_seed=0, log_path=log,
                   log_flags=LogFlags(rewards=True))
        rows = [json.loads(l) for l in open(log) if '"reward"' in l]
        assert rows
        for r in rows:
            assert r["total"] == pytest.approx(
                r["goal"] + r["collision"] + r["social"] + r["progress"])

    def test_replay_requires_header(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "trajectory", "agent": 0, "x": 0, "y": 0}\n')
        with pytest.raises(ConfigError):
            replay_svg(str(bad), str(tmp_path / "x.svg"))
