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


R_GOAL = 15.0                   # arrival bonus
R_COLLISION = -25.0             # penetration penalty
R_S = -0.25                     # social penalty at contact
PERSONAL_SPACE = 0.3            # m, width of the social-penalty band
R_P = 2.5                       # progress weight per meter


def social_penalty(d_min: float) -> float:
    """Linear penalty inside the personal-space band, 0 at the band edge and
    maximal (R_S) at contact. Caller guards 0 <= d_min < PERSONAL_SPACE."""
    return R_S * (PERSONAL_SPACE - d_min) / PERSONAL_SPACE


def progress_reward(prev_pos: np.ndarray, curr_pos: np.ndarray,
                    target: np.ndarray) -> float:
    """Shaping on the decrease of distance to the tick's target point."""
    prev_d = float(np.hypot(*(np.asarray(prev_pos) - target)))
    curr_d = float(np.hypot(*(np.asarray(curr_pos) - target)))
    return R_P * (prev_d - curr_d)


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
                 curr_pos: np.ndarray, target: np.ndarray) -> RewardTerms:
    """Branching reward for a robot that was Active when the step started.

    `status` is the post-step status; arrival only pays out with d_min >= 0
    (the simulator assigns Collided in that case anyway).
    """
    if status == Status.REACHED_GOAL and d_min >= 0.0:
        return RewardTerms(goal=R_GOAL)
    if d_min < 0.0:
        return RewardTerms(collision=R_COLLISION)
    terms = RewardTerms(progress=progress_reward(prev_pos, curr_pos, target))
    if d_min < PERSONAL_SPACE:
        terms.social = social_penalty(d_min)
    return terms
