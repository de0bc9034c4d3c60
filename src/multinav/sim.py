"""World state, differential-drive kinematics, collision detection and
synchronous multi-agent stepping.

All robots are discs of one shared radius. Motion integrates the unicycle
model along exact circular arcs, so coarse timesteps do not cut corners.
Robots that reach their goal, collide or run out of time freeze in place and
stay physically present (other robots keep seeing and hitting them).

World is the one store of robot state: per-robot arrays that the sensors,
the baselines and the metrics read directly. RobotState is a view of one
robot's row of them, not a copy.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

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


def _planar_velocity(v: float, heading: float) -> tuple[float, float]:
    """On math's cos and sin: numpy's may differ from them in the last bit."""
    return v * math.cos(heading), v * math.sin(heading)


def _column(array: str, scalar: bool = False) -> property:
    """A RobotState attribute backed by row i of World.<array>; scalar rows
    read as floats and are written only by integrate."""
    def get(self):
        value = getattr(self._world, array)[self._i]
        return float(value) if scalar else value

    def set(self, value):
        getattr(self._world, array)[self._i] = value
    return property(get, None if scalar else set)


class RobotState:
    """One robot, as a view of row i of its World's arrays: reads and writes
    go to the world, so the view and the arrays never disagree."""

    __slots__ = ("_world", "_i")

    def __init__(self, world: "World", index: int):
        self._world, self._i = world, index

    position = _column("positions")                # (2,) meters
    goal = _column("goals")                        # (2,) meters
    heading = _column("headings", True)            # radians, in (-pi, pi]
    linear_velocity = _column("linear_velocities", True)
    angular_velocity = _column("angular_velocities", True)
    status = _column("statuses")


def integrate(robot: RobotState, action: Action, dt: float) -> None:
    """Advance one robot along the exact unicycle arc for dt seconds,
    writing its row of the world's arrays.

    Expects an already-clamped action. Commanded velocities become the new
    stored velocities.
    """
    world, i = robot._world, robot._i
    v, w, th = action.v, action.w, robot.heading
    x, y = world.positions[i]
    if abs(w) < W_EPS:
        x += v * math.cos(th) * dt
        y += v * math.sin(th) * dt
        th_new = th
    else:
        th_new = th + w * dt
        r = v / w
        x += r * (math.sin(th_new) - math.sin(th))
        y -= r * (math.cos(th_new) - math.cos(th))
    th_new = wrap_angle(th_new)
    world.positions[i] = x, y
    world.headings[i] = th_new
    world.linear_velocities[i] = v
    world.angular_velocities[i] = w
    world.velocities[i] = _planar_velocity(v, th_new)


@dataclass
class WorldConfig:
    dt: float = 0.1
    bounds: tuple[float, float, float, float] = (-5.0, -5.0, 5.0, 5.0)
    circles: list[Circle] = field(default_factory=list)
    walls: list[Wall] = field(default_factory=list)
    max_episode_time: float = 120.0
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
    """Synchronous multi-robot world, the one store of robot state: (n, 2)
    positions, goals and planar velocities (v cos heading, v sin heading),
    (n,) headings, linear and angular velocities, and one status per robot.
    robots[i] is a RobotState view of row i. Single-threaded; run many
    instances in parallel for vectorized rollouts."""

    def __init__(self, config: WorldConfig,
                 starts: list[tuple[float, float, float]],
                 goals: list[tuple[float, float]]):
        starts = np.array(starts, dtype=float).reshape(-1, 3)
        n = len(starts)
        self.config = config
        self.positions = np.array(starts[:, :2])
        self.goals = np.array(goals, dtype=float).reshape(-1, 2)
        self.headings = np.array([wrap_angle(h) for h in starts[:, 2].tolist()])
        self.linear_velocities = np.zeros(n)
        self.angular_velocities = np.zeros(n)
        self.velocities = np.array(
            [_planar_velocity(0.0, h) for h in self.headings.tolist()]
        ).reshape(-1, 2)
        self.statuses = [Status.ACTIVE] * n
        self.robots = [RobotState(self, i) for i in range(n)]
        self.sim_time = 0.0
        self.step_count = 0

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
        arrival; robots still Active at the time limit become Stuck. The
        step writes into a fresh positions array, so positions read before
        it keep their values.
        """
        if len(actions) != len(self.robots):
            raise ActionArity(
                f"expected {len(self.robots)} actions, got {len(actions)}")
        cfg = self.config
        was_active = [s == Status.ACTIVE for s in self.statuses]
        self.positions = self.positions.copy()
        for robot, active, action in zip(self.robots, was_active, actions):
            if active:
                integrate(robot, clamp_action(action), cfg.dt)
        self.sim_time = round(self.sim_time + cfg.dt, 9)
        self.step_count += 1

        d = self._separations()
        to_goal = np.hypot(*(self.positions - self.goals).T)
        timed_out = self.sim_time >= cfg.max_episode_time
        for i, active in enumerate(was_active):
            if not active:
                continue
            if d[i] < 0.0:
                self.statuses[i] = Status.COLLIDED
            elif to_goal[i] < cfg.goal_tolerance:
                self.statuses[i] = Status.REACHED_GOAL
            elif timed_out:
                self.statuses[i] = Status.STUCK
        return StepReport(d_min=d, statuses=list(self.statuses),
                          sim_time=self.sim_time)

    @property
    def all_done(self) -> bool:
        return Status.ACTIVE not in self.statuses


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
