import math

import numpy as np
import pytest

from multinav import rollout, scenarios
from multinav.planner import astar, rasterize
from multinav.rollout import EnvConfig, NavEnv
from multinav.scenarios import (EVAL_AGENT_GRID, Kind, Overconstrained,
                                ScenarioSpec, TRAINING_SET, eval_suite,
                                generate)

ALL_KINDS = [
    ScenarioSpec(Kind.RANDOM, scale=10.0, num_agents=12, num_obstacles=8, rng_seed=3),
    ScenarioSpec(Kind.CIRCLE, scale=10.0, num_agents=24, rng_seed=3),
    ScenarioSpec(Kind.PLUS, scale=10.0, num_agents=4, rng_seed=3),
    ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=5, rng_seed=3),
    ScenarioSpec(Kind.ROOM, scale=10.0, num_agents=8, num_obstacles=10, rng_seed=3),
    ScenarioSpec(Kind.HALLWAY, scale=10.0, num_agents=8, rng_seed=3),
]


class TestCircleGeometry:
    def test_agents_on_ring_with_antipodal_goals(self):
        g = generate(ScenarioSpec(Kind.CIRCLE, scale=10.0, num_agents=24))
        for k, (s, goal) in enumerate(zip(g.starts, g.goals)):
            a = 2 * math.pi * k / 24
            assert s[0] == pytest.approx(5 * math.cos(a), abs=1e-12)
            assert s[1] == pytest.approx(5 * math.sin(a), abs=1e-12)
            assert goal[0] == pytest.approx(5 * math.cos(a + math.pi), abs=1e-9)
            assert goal[1] == pytest.approx(5 * math.sin(a + math.pi), abs=1e-9)

    def test_antipodal_symmetry_sums(self):
        g = generate(ScenarioSpec(Kind.CIRCLE, scale=10.0, num_agents=24))
        starts = np.array([s[:2] for s in g.starts])
        goals = np.array(g.goals)
        assert np.allclose(starts.sum(axis=0), [0, 0], atol=1e-9)
        assert np.allclose(goals.sum(axis=0), [0, 0], atol=1e-9)


class TestDoorway:
    def test_gap_is_four_radii(self):
        g = generate(ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=5,
                                  robot_radius=0.25))
        divider = [w for w in g.config.walls if w.x0 == 0.0 and w.x1 == 0.0]
        assert len(divider) == 2
        ys = sorted([w.y0 for w in divider] + [w.y1 for w in divider])
        gap = ys[2] - ys[1]
        assert gap == pytest.approx(1.0)  # 4 * 0.25

    def test_starts_left_goals_right(self):
        g = generate(ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=5))
        assert all(s[0] < 0 for s in g.starts)
        assert all(goal[0] > 0 for goal in g.goals)


class TestInvariants:
    @pytest.mark.parametrize("spec", ALL_KINDS,
                             ids=[s.kind.value for s in ALL_KINDS])
    def test_spawn_clearance_and_reachability(self, spec):
        g = generate(spec)
        starts = np.array([s[:2] for s in g.starts])
        goals = np.array(g.goals)
        min_clear = 2 * spec.robot_radius
        for pts in (starts, goals):
            d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).T)
            np.fill_diagonal(d, np.inf)
            assert d.min() >= min_clear
        grid = rasterize(g.config, spec.resolution)
        for s, goal in zip(g.starts, g.goals):
            path = astar(grid, s[:2], goal)  # raises if unreachable
            assert path.length >= 0

    @pytest.mark.parametrize("spec", ALL_KINDS,
                             ids=[s.kind.value for s in ALL_KINDS])
    def test_same_seed_identical(self, spec):
        assert generate(spec).to_dict() == generate(spec).to_dict()

    def test_different_seed_differs_for_random(self):
        a = generate(ScenarioSpec(Kind.RANDOM, num_agents=5, rng_seed=1))
        b = generate(ScenarioSpec(Kind.RANDOM, num_agents=5, rng_seed=2))
        assert a.to_dict() != b.to_dict()

    def test_overconstrained_raises(self):
        with pytest.raises(Overconstrained):
            generate(ScenarioSpec(Kind.DOORWAY, scale=6.0, num_agents=120))


class TestOnePlan:
    """generate checks reachability with the plan the episode then uses:
    one rasterize per layout and one A* per agent across generate and
    NavEnv.reset."""

    BUILDERS = ["_gen_circle", "_gen_random", "_gen_plus", "_gen_doorway",
                "_gen_room", "_gen_hallway"]

    def counting(self, monkeypatch):
        calls = {"astar": 0, "rasterize": 0, "layouts": 0}

        def wrap(module, name, key):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (scenarios, rollout):
            wrap(module, "astar", "astar")
            wrap(module, "rasterize", "rasterize")
        for name in self.BUILDERS:
            wrap(scenarios, name, "layouts")
        return calls

    @pytest.mark.parametrize("spec", ALL_KINDS,
                             ids=[s.kind.value for s in ALL_KINDS])
    def test_generate_then_reset(self, spec, monkeypatch):
        calls = self.counting(monkeypatch)
        env = NavEnv(spec, EnvConfig(build_observations=False), seed=0)
        env.reset(generate(spec))
        assert calls["layouts"] == 1
        assert calls["rasterize"] == 1
        assert calls["astar"] == spec.num_agents == len(env.paths)

    def test_reset_draws_and_plans_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        spec = eval_suite(Kind.DOORWAY, 5, rng_seed=4)
        env = NavEnv(spec, EnvConfig(build_observations=False), seed=4)
        for episode in range(1, 4):
            env.reset()
            assert calls["rasterize"] == calls["layouts"] == episode
            assert calls["astar"] == 5 * episode

    def test_a_failed_layout_is_not_reused(self, monkeypatch):
        # the first layout's first goal is unreachable: generate draws a
        # second layout and plans it from scratch
        calls = self.counting(monkeypatch)
        real = scenarios.astar
        failures = []

        def first_goal_unreachable(grid, start, goal):
            if not failures:
                failures.append(goal)
                raise scenarios.Unreachable("test")
            return real(grid, start, goal)

        monkeypatch.setattr(scenarios, "astar", first_goal_unreachable)
        spec = ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=5, rng_seed=3)
        scenario = generate(spec)
        assert calls["layouts"] == calls["rasterize"] == 2
        assert scenario.goals[0] != failures[0]
        grid, paths = scenario.plan(spec.resolution)
        assert len(paths) == 5 and calls["rasterize"] == 2

    def test_plan_at_another_resolution_replans(self):
        spec = ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=3, rng_seed=3)
        scenario = generate(spec)
        grid, paths = scenario.plan(spec.resolution)
        assert scenario.plan(spec.resolution)[1] is paths
        coarse, coarse_paths = scenario.plan(0.25)
        assert coarse.resolution == 0.25 and coarse.shape != grid.shape
        want = [astar(rasterize(scenario.config, 0.25), s[:2], g)
                for s, g in zip(scenario.starts, scenario.goals)]
        for p, q in zip(coarse_paths, want):
            assert p.waypoints.tobytes() == q.waypoints.tobytes()


class TestPlus:
    def test_round_robin_arms_opposite_goals(self):
        g = generate(ScenarioSpec(Kind.PLUS, scale=10.0, num_agents=4))
        for s, goal in zip(g.starts, g.goals):
            assert s[0] == pytest.approx(-goal[0])
            assert s[1] == pytest.approx(-goal[1])
        # four distinct arms
        arms = {(np.sign(round(s[0], 6)), np.sign(round(s[1], 6)))
                for s in g.starts}
        assert len(arms) == 4


class TestHallway:
    def test_groups_swap_ends(self):
        g = generate(ScenarioSpec(Kind.HALLWAY, scale=10.0, num_agents=8))
        for s, goal in zip(g.starts, g.goals):
            assert np.sign(s[0]) == -np.sign(goal[0])
        left = sum(1 for s in g.starts if s[0] < 0)
        assert left == 4


class TestEvalSuite:
    def test_circle_forty_radius(self):
        spec = eval_suite(Kind.CIRCLE, 40)
        assert spec.scale == 15.0  # radius 7.5
        g = generate(spec)
        r = math.hypot(*g.starts[0][:2])
        assert r == pytest.approx(7.5)
        assert len(g.starts) == 40

    def test_random_forty(self):
        spec = eval_suite(Kind.RANDOM, 40)
        assert spec.scale == 15.0 and spec.num_obstacles == 8
        g = generate(spec)
        assert len(g.config.circles) == 8
        assert len(g.starts) == 40

    def test_doorway_fifteen(self):
        spec = eval_suite(Kind.DOORWAY, 15)
        g = generate(spec)
        assert len(g.starts) == 15

    def test_warning_outside_grid(self):
        with pytest.warns(UserWarning):
            eval_suite(Kind.CIRCLE, 13)

    def test_eval_kinds_only(self):
        with pytest.raises(ValueError):
            eval_suite(Kind.PLUS, 4)

    def test_grid_matches_benchmark_counts(self):
        assert EVAL_AGENT_GRID[Kind.CIRCLE] == (10, 20, 40)
        assert EVAL_AGENT_GRID[Kind.DOORWAY] == (5, 10, 15)
        assert EVAL_AGENT_GRID[Kind.HALLWAY] == (8, 12, 16)
        assert EVAL_AGENT_GRID[Kind.RANDOM] == (10, 20, 40)


class TestTrainingSet:
    def test_covers_six_environments(self):
        kinds = [s.kind for s in TRAINING_SET]
        assert kinds == [Kind.RANDOM, Kind.CIRCLE, Kind.PLUS, Kind.DOORWAY,
                         Kind.ROOM, Kind.HALLWAY]
        by_kind = {s.kind: s for s in TRAINING_SET}
        assert by_kind[Kind.RANDOM].num_agents == 25
        assert by_kind[Kind.RANDOM].num_obstacles == 8
        assert by_kind[Kind.CIRCLE].num_agents == 24
        assert by_kind[Kind.PLUS].num_agents == 4
        assert by_kind[Kind.DOORWAY].num_agents == 5
        assert by_kind[Kind.ROOM].num_agents == 8
        assert by_kind[Kind.ROOM].num_obstacles == 10
        assert by_kind[Kind.HALLWAY].num_agents == 8
