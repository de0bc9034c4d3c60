"""World state, differential-drive kinematics, collision detection and
synchronous multi-agent stepping.

All robots are discs of one shared radius. Motion integrates the unicycle
model along exact circular arcs, so coarse timesteps do not cut corners.
Robots that reach their goal, collide or run out of time freeze in place and
stay physically present (other robots keep seeing and hitting them).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Circle, Wall, obstacle_surface_distance, wrap_angle

W_EPS = 1e-9  # below this |w|, arc integration degenerates to a straight line


class NonFiniteAction(ValueError):
    pass


class ActionArity(ValueError):
    pass


class Status(enum.Enum):
    ACTIVE = "active"
    REACHED_GOAL = "reached_goal"
    COLLIDED = "collided"
    STUCK = "stuck"


@dataclass
class Action:
    v: float
    w: float


V_MAX = 1.0
W_MAX = 1.0


def clamp_action(raw: Action) -> Action:
    """Clip a command into the allowed box: v in [0, 1], w in [-1, 1].

    Backward motion (v < 0) is clipped away entirely.
    """
    if not (math.isfinite(raw.v) and math.isfinite(raw.w)):
        raise NonFiniteAction(f"non-finite action ({raw.v}, {raw.w})")
    return Action(min(max(raw.v, 0.0), V_MAX), min(max(raw.w, -W_MAX), W_MAX))


@dataclass
class RobotState:
    position: np.ndarray          # (2,) meters
    heading: float                # radians, wrapped to (-pi, pi]
    goal: np.ndarray              # (2,) meters
    radius: float = 0.25
    linear_velocity: float = 0.0
    angular_velocity: float = 0.0
    status: Status = Status.ACTIVE

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.heading = wrap_angle(float(self.heading))


def integrate(state: RobotState, action: Action, dt: float) -> RobotState:
    """Advance one robot along the exact unicycle arc for dt seconds.

    Expects an already-clamped action. Commanded velocities become the new
    stored velocities.
    """
    v, w, th = action.v, action.w, state.heading
    x, y = state.position
    if abs(w) < W_EPS:
        x += v * math.cos(th) * dt
        y += v * math.sin(th) * dt
        th_new = th
    else:
        th_new = th + w * dt
        r = v / w
        x += r * (math.sin(th_new) - math.sin(th))
        y -= r * (math.cos(th_new) - math.cos(th))
    return replace(
        state,
        position=np.array([x, y]),
        heading=wrap_angle(th_new),
        linear_velocity=v,
        angular_velocity=w,
    )


@dataclass
class WorldConfig:
    dt: float = 0.1
    bounds: tuple[float, float, float, float] = (-5.0, -5.0, 5.0, 5.0)
    circles: list[Circle] = field(default_factory=list)
    walls: list[Wall] = field(default_factory=list)
    max_episode_time: float = 120.0
    rng_seed: int = 0
    robot_radius: float = 0.25
    goal_tolerance: float = 0.2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_episode_time <= 0:
            raise ValueError("max_episode_time must be positive")

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "bounds": list(self.bounds),
            "circles": [[c.cx, c.cy, c.r] for c in self.circles],
            "walls": [[w.x0, w.y0, w.x1, w.y1, w.thickness] for w in self.walls],
            "max_episode_time": self.max_episode_time,
            "rng_seed": self.rng_seed,
            "robot_radius": self.robot_radius,
            "goal_tolerance": self.goal_tolerance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorldConfig":
        return cls(
            dt=d["dt"],
            bounds=tuple(d["bounds"]),
            circles=[Circle(*row) for row in d.get("circles", [])],
            walls=[Wall(*row) for row in d.get("walls", [])],
            max_episode_time=d["max_episode_time"],
            rng_seed=int(d.get("rng_seed", 0)),
            robot_radius=d.get("robot_radius", 0.25),
            goal_tolerance=d.get("goal_tolerance", 0.2),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "WorldConfig":
        return cls.from_dict(json.loads(s))


@dataclass
class StepReport:
    d_min: np.ndarray             # per-agent signed clearance after the step
    statuses: list[Status]
    sim_time: float


class World:
    """Synchronous multi-robot world. Single-threaded; run many instances in
    parallel for vectorized rollouts."""

    def __init__(self, config: WorldConfig, robots: list[RobotState]):
        for r in robots:
            r.radius = config.robot_radius
        self.config = config
        self.robots = robots
        self.sim_time = 0.0
        self.step_count = 0

    @classmethod
    def from_starts(cls, config: WorldConfig,
                    starts: list[tuple[float, float, float]],
                    goals: list[tuple[float, float]]) -> "World":
        robots = [
            RobotState(position=np.array(s[:2]), heading=s[2], goal=np.array(g),
                       radius=config.robot_radius)
            for s, g in zip(starts, goals)
        ]
        return cls(config, robots)

    @property
    def positions(self) -> np.ndarray:
        return np.array([r.position for r in self.robots])

    def min_separation(self, agent_index: int) -> float:
        """Signed surface clearance of one robot: min over other robots of
        (center distance - 2R) and over static obstacles of (surface distance
        - R). Negative iff penetrating; +inf with no neighbors or obstacles."""
        return float(self._separations()[agent_index])

    def _separations(self) -> np.ndarray:
        pos = self.positions
        n = len(pos)
        radius = self.config.robot_radius
        d = np.full(n, np.inf)
        if n > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            np.fill_diagonal(dist, np.inf)
            d = dist.min(axis=1) - 2.0 * radius
        # x - radius rounds monotonically in x, so subtracting it once from
        # the nearest surface equals subtracting it from each, bit for bit
        obstacles = obstacle_surface_distance(pos, self.config.circles,
                                              self.config.walls)
        return np.minimum(d, obstacles - radius)

    def step(self, actions: list[Action]) -> StepReport:
        """Integrate all Active robots simultaneously, then update statuses.

        Takes one action per robot (entries for frozen robots are ignored).
        Status transitions on the post-move state: collision beats goal
        arrival; robots still Active at the time limit become Stuck.
        """
        if len(actions) != len(self.robots):
            raise ActionArity(
                f"expected {len(self.robots)} actions, got {len(actions)}")
        cfg = self.config
        was_active = [r.status == Status.ACTIVE for r in self.robots]
        for i, robot in enumerate(self.robots):
            if was_active[i]:
                self.robots[i] = integrate(robot, clamp_action(actions[i]), cfg.dt)
        self.sim_time = round(self.sim_time + cfg.dt, 9)
        self.step_count += 1

        d = self._separations()
        timed_out = self.sim_time >= cfg.max_episode_time
        for i, robot in enumerate(self.robots):
            if not was_active[i]:
                continue
            if d[i] < 0.0:
                robot.status = Status.COLLIDED
            elif float(np.hypot(*(robot.position - robot.goal))) < cfg.goal_tolerance:
                robot.status = Status.REACHED_GOAL
            elif timed_out:
                robot.status = Status.STUCK
        return StepReport(
            d_min=d,
            statuses=[r.status for r in self.robots],
            sim_time=self.sim_time,
        )

    @property
    def all_done(self) -> bool:
        return all(r.status != Status.ACTIVE for r in self.robots)


def trajectory_record(world: World, agent_index: int, step: int,
                      action: Action | None, d_min: float) -> dict:
    """One JSON-lines trajectory record for (step, agent)."""
    r = world.robots[agent_index]
    return {
        "step": step,
        "t": world.sim_time,
        "agent": agent_index,
        "x": float(r.position[0]),
        "y": float(r.position[1]),
        "theta": r.heading,
        "action_v": None if action is None else action.v,
        "action_w": None if action is None else action.w,
        "d_min": None if math.isinf(d_min) else d_min,
        "status": r.status.value,
    }
