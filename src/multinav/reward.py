"""Per-step scalar reward.

Exactly one branch fires per step: the goal bonus on arrival (only with
non-negative clearance), the collision penalty when penetrating, and
otherwise the sum of a linear personal-space penalty and a progress term
toward the running target point. Both progress distances use the target of
the current tick, so the term telescopes while the target index is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import Status


@dataclass
class RewardConfig:
    r_goal: float = 15.0
    r_collision: float = -25.0
    r_s: float = -0.25
    personal_space: float = 0.3
    r_p: float = 2.5

    def __post_init__(self):
        if self.r_goal <= 0 or self.r_collision >= 0 or self.personal_space <= 0:
            raise ValueError("reward signs/personal space out of range")


def social_penalty(d_min: float, cfg: RewardConfig) -> float:
    """Linear penalty inside the personal-space band, 0 at the band edge and
    maximal (r_s) at contact. Caller guards 0 <= d_min < personal_space."""
    return cfg.r_s * (cfg.personal_space - d_min) / cfg.personal_space


def progress_reward(prev_pos: np.ndarray, curr_pos: np.ndarray,
                    target: np.ndarray, cfg: RewardConfig) -> float:
    """Shaping on the decrease of distance to the tick's target point."""
    prev_d = float(np.hypot(*(np.asarray(prev_pos) - target)))
    curr_d = float(np.hypot(*(np.asarray(curr_pos) - target)))
    return cfg.r_p * (prev_d - curr_d)


@dataclass
class RewardTerms:
    goal: float = 0.0
    collision: float = 0.0
    social: float = 0.0
    progress: float = 0.0

    @property
    def total(self) -> float:
        return self.goal + self.collision + self.social + self.progress


def reward_terms(status: Status, d_min: float, prev_pos: np.ndarray,
                 curr_pos: np.ndarray, target: np.ndarray,
                 cfg: RewardConfig) -> RewardTerms:
    """Branching reward for a robot that was Active when the step started.

    `status` is the post-step status; arrival only pays out with d_min >= 0
    (the simulator assigns Collided in that case anyway).
    """
    if status == Status.REACHED_GOAL and d_min >= 0.0:
        return RewardTerms(goal=cfg.r_goal)
    if d_min < 0.0:
        return RewardTerms(collision=cfg.r_collision)
    terms = RewardTerms(progress=progress_reward(prev_pos, curr_pos, target, cfg))
    if d_min < cfg.personal_space:
        terms.social = social_penalty(d_min, cfg)
    return terms
