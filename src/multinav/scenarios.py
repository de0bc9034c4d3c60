"""Parametric generators for the training environments and the scaled
evaluation scenarios.

Six kinds: Random (open area, scattered circular obstacles), Circle (agents
on a ring with antipodal goals), Plus (two crossing corridors), Doorway (a
room split by a wall with a gap two robot diameters wide), Room (walled box
with random interior walls), Hallway (narrow corridor, two groups swapping
ends). Placements are rejection-sampled until starts and goals are mutually
clear, sit on free inflated cells and every goal is reachable by A*; the
grid and paths of that check are kept as the episode's plan. Generation is
pure in the seed: the same spec yields the same world.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import Circle, Wall
from .planner import (GlobalPath, InvalidEndpoint, OccupancyGrid, Unreachable,
                      astar, rasterize)
from .sim import World, WorldConfig

SPAWN_MARGIN = 0.1   # extra surface clearance between spawned robots
MAX_PLACE_TRIES = 4000
MAX_LAYOUT_TRIES = 25


class Overconstrained(RuntimeError):
    pass


class Kind(enum.Enum):
    RANDOM = "random"
    CIRCLE = "circle"
    PLUS = "plus"
    DOORWAY = "doorway"
    ROOM = "room"
    HALLWAY = "hallway"


@dataclass
class ScenarioSpec:
    kind: Kind
    scale: float = 10.0            # principal dimension in meters
    num_agents: int = 8
    num_obstacles: int = 8         # circles (Random) or walls (Room)
    rng_seed: int = 0
    robot_radius: float = 0.25
    max_episode_time: float = 120.0
    resolution: float = 0.1

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["kind"] = self.kind.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        d = dict(d)
        d["kind"] = Kind(d["kind"])
        return cls(**d)


@dataclass
class GeneratedScenario:
    config: WorldConfig
    starts: list                   # (x, y, heading) per agent
    goals: list                    # (x, y) per agent
    # the plan() cache: neither serialized nor compared
    grid: OccupancyGrid | None = field(default=None, repr=False, compare=False)
    paths: list[GlobalPath] | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def make_world(self) -> World:
        return World.from_starts(self.config, self.starts, self.goals)

    def plan(self, resolution: float) -> tuple[OccupancyGrid, list[GlobalPath]]:
        """The inflated occupancy grid and one A* path per agent.

        Computed on the first call and cached, so the reachability check in
        `generate` and the episode's global paths are one plan. A grid the
        builder rasterized for placement is reused when its resolution
        matches. Raises Unreachable or InvalidEndpoint for an unplannable
        agent.
        """
        if self.grid is None or self.grid.resolution != resolution:
            self.grid, self.paths = rasterize(self.config, resolution), None
        if self.paths is None:
            self.paths = [astar(self.grid, s[:2], g)
                          for s, g in zip(self.starts, self.goals)]
        return self.grid, self.paths

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "robots": [{"start": list(s), "goal": list(g)}
                       for s, g in zip(self.starts, self.goals)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratedScenario":
        return cls(config=WorldConfig.from_dict(d["config"]),
                   starts=[tuple(r["start"]) for r in d["robots"]],
                   goals=[tuple(r["goal"]) for r in d["robots"]])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "GeneratedScenario":
        return cls.from_dict(json.loads(s))


def _heading_towards(start, goal) -> float:
    return math.atan2(goal[1] - start[1], goal[0] - start[0])


def _sample_clear(rng, box, taken, grid, radius, tries=MAX_PLACE_TRIES):
    """Uniform point in box, on a free inflated cell, clear of taken points."""
    xmin, ymin, xmax, ymax = box
    clearance = 2.0 * radius + SPAWN_MARGIN
    for _ in range(tries):
        p = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        if grid.occupied_near(p[0], p[1], radius * 0.5):
            continue
        if grid.occupied(p[0], p[1]):
            continue
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= clearance for q in taken):
            return p
    raise Overconstrained(f"could not place a point in {box}")


def _box_walls(xmin, ymin, xmax, ymax, thickness=0.1) -> list[Wall]:
    return [Wall(xmin, ymin, xmax, ymin, thickness),
            Wall(xmin, ymax, xmax, ymax, thickness),
            Wall(xmin, ymin, xmin, ymax, thickness),
            Wall(xmax, ymin, xmax, ymax, thickness)]


def generate(spec: ScenarioSpec) -> GeneratedScenario:
    """Build a world and start/goal assignment for one scenario instance."""
    rng = np.random.default_rng(spec.rng_seed)
    builder = {
        Kind.CIRCLE: _gen_circle,
        Kind.RANDOM: _gen_random,
        Kind.PLUS: _gen_plus,
        Kind.DOORWAY: _gen_doorway,
        Kind.ROOM: _gen_room,
        Kind.HALLWAY: _gen_hallway,
    }[spec.kind]
    last_err = None
    for _ in range(MAX_LAYOUT_TRIES):
        try:
            scenario = builder(spec, rng)
        except Overconstrained as e:
            last_err = e
            continue
        try:
            scenario.plan(spec.resolution)
        except (Unreachable, InvalidEndpoint):
            last_err = Overconstrained("a goal was unreachable")
            continue
        return scenario
    raise Overconstrained(f"layout failed after {MAX_LAYOUT_TRIES} attempts: {last_err}")


def _base_config(spec: ScenarioSpec, bounds, circles=(), walls=()) -> WorldConfig:
    return WorldConfig(bounds=bounds, circles=list(circles), walls=list(walls),
                       max_episode_time=spec.max_episode_time,
                       rng_seed=spec.rng_seed, robot_radius=spec.robot_radius)


def _gen_circle(spec: ScenarioSpec, rng) -> GeneratedScenario:
    radius = spec.scale / 2.0
    pad = 1.0
    bounds = (-radius - pad, -radius - pad, radius + pad, radius + pad)
    starts, goals = [], []
    n = spec.num_agents
    for k in range(n):
        a = 2.0 * math.pi * k / n
        s = (radius * math.cos(a), radius * math.sin(a))
        g = (radius * math.cos(a + math.pi), radius * math.sin(a + math.pi))
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    return GeneratedScenario(_base_config(spec, bounds), starts, goals)


def _gen_random(spec: ScenarioSpec, rng) -> GeneratedScenario:
    half = spec.scale / 2.0
    bounds = (-half, -half, half, half)
    circles = []
    for _ in range(spec.num_obstacles):
        r = rng.uniform(0.3, 0.7)
        circles.append(Circle(rng.uniform(-half + r + 0.5, half - r - 0.5),
                              rng.uniform(-half + r + 0.5, half - r - 0.5), r))
    cfg = _base_config(spec, bounds, circles=circles)
    grid = rasterize(cfg, spec.resolution)
    box = (-half + 0.5, -half + 0.5, half - 0.5, half - 0.5)
    starts, goals = [], []
    for _ in range(spec.num_agents):
        s = _sample_clear(rng, box, [p[:2] for p in starts], grid, spec.robot_radius)
        g = _sample_clear(rng, box, goals, grid, spec.robot_radius)
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    return GeneratedScenario(cfg, starts, goals, grid)


def _gen_plus(spec: ScenarioSpec, rng) -> GeneratedScenario:
    length = spec.scale
    width = 2.0 * (spec.scale / 10.0)
    L, h = length / 2.0, width / 2.0
    pad = 0.5
    bounds = (-L - pad, -L - pad, L + pad, L + pad)
    walls = []
    for sy in (-1, 1):
        walls.append(Wall(-L, sy * h, -h, sy * h, 0.1))
        walls.append(Wall(h, sy * h, L, sy * h, 0.1))
        walls.append(Wall(sy * h, -L, sy * h, -h, 0.1))
        walls.append(Wall(sy * h, h, sy * h, L, 0.1))
    cfg = _base_config(spec, bounds, walls=walls)
    grid = rasterize(cfg, spec.resolution)
    # arm ends: +x, +y, -x, -y assigned round-robin; goal at the opposite arm
    arm_dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    starts, goals = [], []
    for k in range(spec.num_agents):
        dx, dy = arm_dirs[k % 4]
        depth = L - 0.6 - 0.7 * (k // 4)
        if depth < width:
            raise Overconstrained("plus arms cannot hold this many agents")
        s = (dx * depth, dy * depth)
        g = (-dx * depth, -dy * depth)
        if grid.occupied(*s) or grid.occupied(*g):
            raise Overconstrained("plus placement fell on occupancy")
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    return GeneratedScenario(cfg, starts, goals, grid)


def _gen_doorway(spec: ScenarioSpec, rng) -> GeneratedScenario:
    # room scale x 0.4*scale, dividing wall at x=0 with a gap of 4R centered
    L = spec.scale / 2.0
    H = 0.4 * spec.scale / 2.0
    gap = 4.0 * spec.robot_radius
    pad = 0.5
    bounds = (-L - pad, -H - pad, L + pad, H + pad)
    walls = _box_walls(-L, -H, L, H)
    walls.append(Wall(0.0, -H, 0.0, -gap / 2.0, 0.1))
    walls.append(Wall(0.0, gap / 2.0, 0.0, H, 0.1))
    cfg = _base_config(spec, bounds, walls=walls)
    grid = rasterize(cfg, spec.resolution)
    left = (-L + 0.6, -H + 0.6, -1.0, H - 0.6)
    right = (1.0, -H + 0.6, L - 0.6, H - 0.6)
    starts, goals = [], []
    for _ in range(spec.num_agents):
        s = _sample_clear(rng, left, [p[:2] for p in starts], grid, spec.robot_radius)
        g = _sample_clear(rng, right, goals, grid, spec.robot_radius)
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    return GeneratedScenario(cfg, starts, goals, grid)


def _gen_room(spec: ScenarioSpec, rng) -> GeneratedScenario:
    half = spec.scale / 2.0
    pad = 0.5
    bounds = (-half - pad, -half - pad, half + pad, half + pad)
    walls = _box_walls(-half, -half, half, half)
    unit = spec.scale / 10.0
    for _ in range(spec.num_obstacles):
        length = rng.uniform(1.0, 4.0) * unit
        x, y = rng.uniform(-half + 0.5, half - 0.5, 2)
        if rng.random() < 0.5:
            walls.append(Wall(x, y, min(x + length, half - 0.2), y, 0.1))
        else:
            walls.append(Wall(x, y, x, min(y + length, half - 0.2), 0.1))
    cfg = _base_config(spec, bounds, walls=walls)
    grid = rasterize(cfg, spec.resolution)
    box = (-half + 0.6, -half + 0.6, half - 0.6, half - 0.6)
    starts, goals = [], []
    for _ in range(spec.num_agents):
        s = _sample_clear(rng, box, [p[:2] for p in starts], grid, spec.robot_radius)
        g = _sample_clear(rng, box, goals, grid, spec.robot_radius)
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    return GeneratedScenario(cfg, starts, goals, grid)


def _gen_hallway(spec: ScenarioSpec, rng) -> GeneratedScenario:
    L = spec.scale / 2.0
    H = 2.5 * (spec.scale / 10.0) / 2.0
    pad = 0.5
    bounds = (-L - pad, -H - pad, L + pad, H + pad)
    cfg = _base_config(spec, bounds, walls=_box_walls(-L, -H, L, H))
    grid = rasterize(cfg, spec.resolution)
    left = (-L + 0.6, -H + 0.45, -L + 0.35 * spec.scale, H - 0.45)
    right = (L - 0.35 * spec.scale, -H + 0.45, L - 0.6, H - 0.45)
    starts, goals = [], []
    n = spec.num_agents
    for k in range(n):
        side = left if k < (n + 1) // 2 else right
        s = _sample_clear(rng, side, [p[:2] for p in starts], grid, spec.robot_radius)
        # swap ends: the goal mirrors the start across the corridor center
        g = (-s[0], s[1])
        if grid.occupied(*g):
            g = (-s[0], -s[1])
        starts.append((s[0], s[1], _heading_towards(s, g)))
        goals.append(g)
    # goals inherit start clearance by mirroring, but verify anyway
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(goals[i][0] - goals[j][0], goals[i][1] - goals[j][1])
            if d < 2.0 * spec.robot_radius + SPAWN_MARGIN:
                raise Overconstrained("mirrored hallway goals collide")
    return GeneratedScenario(cfg, starts, goals, grid)


TRAINING_SET = [
    ScenarioSpec(Kind.RANDOM, scale=10.0, num_agents=25, num_obstacles=8),
    ScenarioSpec(Kind.CIRCLE, scale=10.0, num_agents=24),
    ScenarioSpec(Kind.PLUS, scale=10.0, num_agents=4),
    ScenarioSpec(Kind.DOORWAY, scale=10.0, num_agents=5),
    ScenarioSpec(Kind.ROOM, scale=10.0, num_agents=8, num_obstacles=10),
    ScenarioSpec(Kind.HALLWAY, scale=10.0, num_agents=8),
]

EVAL_AGENT_GRID = {
    Kind.CIRCLE: (10, 20, 40),
    Kind.DOORWAY: (5, 10, 15),
    Kind.HALLWAY: (8, 12, 16),
    Kind.RANDOM: (10, 20, 40),
}


def eval_suite(kind: Kind, agent_count: int, rng_seed: int = 0) -> ScenarioSpec:
    """Evaluation scenario at 15 m scale with the benchmark agent counts."""
    if kind not in EVAL_AGENT_GRID:
        raise ValueError(f"{kind} is not an evaluation scenario")
    if agent_count not in EVAL_AGENT_GRID[kind]:
        warnings.warn(f"{agent_count} agents is outside the benchmark grid "
                      f"for {kind.value}", stacklevel=2)
    return ScenarioSpec(kind=kind, scale=15.0, num_agents=agent_count,
                        num_obstacles=8, rng_seed=rng_seed)
