import numpy as np
import pytest

from multinav.reward import (R_COLLISION, R_GOAL, R_P, progress_reward,
                             reward_terms, social_penalty)
from multinav.sim import Status


class TestSocialPenalty:
    def test_mid_band_value(self):
        # r_s * (PS - d)/PS = -0.25 * (0.3 - 0.15)/0.3 = -0.125
        assert social_penalty(0.15) == pytest.approx(-0.125)

    def test_zero_at_band_edge(self):
        assert social_penalty(0.3) == 0.0

    def test_full_penalty_at_contact(self):
        assert social_penalty(0.0) == pytest.approx(-0.25)

    def test_continuous_at_edge(self):
        eps = 1e-9
        assert abs(social_penalty(0.3 - eps)) < 1e-6


class TestProgressReward:
    def test_approach(self):
        # r_p * (2.0 - 1.5) = 2.5 * 0.5 = +1.25
        r = progress_reward(np.array([2.0, 0.0]), np.array([1.5, 0.0]),
                            np.array([0.0, 0.0]))
        assert r == pytest.approx(1.25)

    def test_no_motion(self):
        p = np.array([1.3, -0.4])
        assert progress_reward(p, p, np.array([5.0, 5.0])) == 0.0

    def test_retreat(self):
        # moving 0.1 m directly away: 2.5 * (-0.1) = -0.25
        r = progress_reward(np.array([1.0, 0.0]), np.array([1.1, 0.0]),
                            np.array([0.0, 0.0]))
        assert r == pytest.approx(-0.25)

    def test_telescoping_under_fixed_target(self):
        rng = np.random.default_rng(81)
        target = np.array([3.0, -2.0])
        points = [rng.uniform(-5, 5, 2) for _ in range(40)]
        total = sum(progress_reward(a, b, target)
                    for a, b in zip(points[:-1], points[1:]))
        d_start = np.hypot(*(points[0] - target))
        d_end = np.hypot(*(points[-1] - target))
        assert total == pytest.approx(R_P * (d_start - d_end), abs=1e-9)


class TestStepReward:
    def test_goal_bonus(self):
        r = reward_terms(Status.REACHED_GOAL, 0.5, np.array([0.3, 0.0]),
                         np.array([0.1, 0.0]), np.zeros(2)).total
        assert r == 15.0

    def test_collision_penalty(self):
        r = reward_terms(Status.COLLIDED, -0.01, np.array([1.0, 0.0]),
                         np.array([0.9, 0.0]), np.zeros(2)).total
        assert r == -25.0

    def test_progress_only_outside_band(self):
        # d_min 0.5 >= PS, 0.1 m straight toward the target: +0.25
        r = reward_terms(Status.ACTIVE, 0.5, np.array([1.0, 0.0]),
                         np.array([0.9, 0.0]), np.zeros(2)).total
        assert r == pytest.approx(0.25)

    def test_social_plus_progress_inside_band(self):
        terms = reward_terms(Status.ACTIVE, 0.15, np.array([1.0, 0.0]),
                             np.array([0.9, 0.0]), np.zeros(2))
        assert terms.social == pytest.approx(-0.125)
        assert terms.progress == pytest.approx(0.25)
        assert terms.total == pytest.approx(0.125)

    def test_branch_exclusivity(self):
        # exactly one of goal / collision / shaping fires, over random inputs
        rng = np.random.default_rng(82)
        for _ in range(500):
            d_min = rng.uniform(-0.5, 1.0)
            status = rng.choice([Status.ACTIVE, Status.REACHED_GOAL,
                                 Status.COLLIDED, Status.STUCK])
            if status == Status.REACHED_GOAL and d_min < 0:
                continue  # simulator never produces this pair
            terms = reward_terms(status, d_min, rng.uniform(-2, 2, 2),
                                 rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            branches = [terms.goal != 0.0, terms.collision != 0.0,
                        (terms.social != 0.0 or terms.progress != 0.0)]
            assert sum(branches) <= 1
            if status == Status.REACHED_GOAL:
                assert terms.goal == R_GOAL
            elif d_min < 0:
                assert terms.collision == R_COLLISION

