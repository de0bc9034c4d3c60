"""Episode engine: one scenario instance stepped synchronously with the full
perception stack (LiDAR, tracking, global paths, running targets), reward
computation and per-robot bookkeeping for metrics.

Training and benchmarking both drive NavEnv; observation building can be
switched off for controllers that consume world state directly (ORCA, the
straight-to-target baseline), which skips raycasting entirely; otherwise
each reset and step senses once for all live robots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lidar import LidarScan, ScanHistory, noisy_ranges, raycast_batch
# raycast and apply_lidar_noise (_sense scans all robots at once), astar and
# rasterize (GeneratedScenario.plan plans each episode), and normalize
# (policy.batch_obs scales a whole batch) are not called here; they stay
# importable from this module by name for tracers that wrap them, such as
# perfbench/spans.py
from .lidar import apply_lidar_noise, raycast  # noqa: F401
from .observations import (STATE_POSITION_BOUND, STATE_VELOCITY_BOUND,
                           AblationConfig, NoiseConfig, build_observation)
from .observations import unit_scale as normalize  # noqa: F401
from .planner import NearTable
from .planner import TargetPoint, astar, rasterize, running_target  # noqa: F401
from .reward import reward_terms
from .scenarios import GeneratedScenario, ScenarioSpec, generate
from .sim import V_MAX, Action, Status, World
from .tracker import STATIC_MARGIN, Tracker, update_trackers


@dataclass
class EnvConfig:
    horizon: int = 5                       # running-target lookahead, waypoints
    noise: NoiseConfig = field(default_factory=NoiseConfig.disabled)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    build_observations: bool = True


@dataclass
class AgentRecord:
    """Per-robot episode bookkeeping for the benchmark metrics."""
    lower_bound_time: float = 0.0          # (path - goal tolerance) / v_max
    distance_traveled: float = 0.0
    travel_time: float | None = None       # sim time when the robot finished
    outcome: str = "active"


@dataclass
class StepResult:
    rewards: list                          # float per agent, None if was frozen
    reward_terms: list                     # RewardTerms per agent or None
    dones: list                            # bool per agent (this step)
    d_min: np.ndarray


class NavEnv:
    """One world plus its perception state. Instances are independent; run
    many in parallel for vectorized rollouts."""

    def __init__(self, spec: ScenarioSpec, env_cfg: EnvConfig | None = None,
                 seed: int = 0):
        self.spec = spec
        self.cfg = env_cfg or EnvConfig()
        self._seeds = np.random.SeedSequence(seed)
        child = self._seeds.spawn(4)
        self.lidar_rng = np.random.default_rng(child[0])
        self.state_rng = np.random.default_rng(child[1])   # baselines' feed
        self._episode_rng = np.random.default_rng(child[2])
        self.obs_rng = np.random.default_rng(child[3])     # observation noise
        self.world: World | None = None
        self.scenario: GeneratedScenario | None = None

    # ---- episode lifecycle ---------------------------------------------------

    def reset(self, scenario: GeneratedScenario | None = None):
        """Start a new episode; draws a fresh scenario unless one is given."""
        if scenario is None:
            seed = int(self._episode_rng.integers(0, 2**62))
            scenario = generate(replace(self.spec, rng_seed=seed))
        self.scenario = scenario
        self.world = scenario.make_world()
        # the plan generate() checked reachability with; a scenario loaded
        # from JSON plans here
        self.grid, self.paths = scenario.plan()
        # the static split's table of this grid, built at its first point
        self.static_near = NearTable(self.grid, STATIC_MARGIN)
        n = len(self.world.robots)
        self.trackers = [Tracker() for _ in range(n)]
        self.histories = [ScanHistory() for _ in range(n)]
        self.records = [AgentRecord(
            lower_bound_time=max(p.length - self.world.config.goal_tolerance, 0.0)
            / V_MAX) for p in self.paths]
        self.episode_rewards = np.zeros(n)
        self._targets = [self._find_target(i) for i in range(n)]
        self._sense()
        return self.observations()

    @property
    def n_agents(self) -> int:
        return len(self.world.robots)

    def active(self) -> list[bool]:
        return [s == Status.ACTIVE for s in self.world.statuses]

    def target_point(self, i: int) -> TargetPoint:
        """Running target on agent i's global path (final goal under the
        no-global-path ablation) at its current position, as the last reset
        or step found it."""
        return self._targets[i]

    def _find_target(self, i: int) -> TargetPoint:
        robot = self.world.robots[i]
        if self.cfg.ablation.no_global_path:
            return TargetPoint(position=robot.goal.copy(), path_direction=0.0,
                               index=-1)
        return running_target(self.paths[i], robot.position, self.cfg.horizon)

    def _sense(self) -> None:
        if not self.cfg.build_observations:
            return
        world = self.world
        live = [i for i, s in enumerate(world.statuses) if s == Status.ACTIVE]
        ranges = raycast_batch(world, live)
        if self.cfg.noise.enabled:
            ranges = noisy_ranges(ranges, self.lidar_rng)
        for i, row in zip(live, ranges):
            self.histories[i].push(LidarScan(row, world.sim_time))
        poses = np.column_stack([world.positions[live], world.headings[live]])
        update_trackers([self.trackers[i] for i in live], ranges, poses,
                        self.static_near, world.config.dt)

    def observations(self):
        """ObservationBundle per agent; None for frozen robots."""
        if not self.cfg.build_observations:
            return [None] * self.n_agents
        rng = self.obs_rng if self.cfg.noise.enabled else None
        return [build_observation(
                    self.world, i, self.histories[i],
                    self.trackers[i].dynamic_tracks(), self.target_point(i),
                    ablation=self.cfg.ablation, rng=rng)
                if robot.status == Status.ACTIVE else None
                for i, robot in enumerate(self.world.robots)]

    def noisy_neighbor_states(self, observers):
        """Ground-truth neighbour (positions (k, n - 1, 2), velocities
        (k, n - 1, 2), radii (k, n - 1)) arrays for the k robot indices in
        observers, row i holding every robot but observers[i] in index
        order, read from the world's arrays, with the evaluation noise
        protocol applied when it is on; the baseline controllers' feed,
        built once per step for all of them."""
        world = self.world
        others = np.arange(len(world.positions) - 1)
        others = others + (others >= np.reshape(observers, (-1, 1)))
        pos, vel = world.positions[others], world.velocities[others]
        radii = np.full(others.shape, world.config.robot_radius)
        if not self.cfg.noise.enabled:
            return pos, vel, radii
        # one draw for all observers: entry (i, j) holds neighbour j's
        # position noise, then its velocity noise, scaled as
        # Generator.uniform scales, so the values equal those of a
        # uniform(-b, b, 2) call per observer, neighbour and bound in that
        # order
        b = np.repeat([STATE_POSITION_BOUND, STATE_VELOCITY_BOUND], 2)
        noise = -b + (b - -b) * self.state_rng.random(others.shape + b.shape)
        return pos + noise[..., :2], vel + noise[..., 2:], radii

    # ---- stepping --------------------------------------------------------

    def step(self, raw_actions) -> StepResult:
        """Advance one tick. raw_actions holds one (v, w) pair per agent
        (unclamped; entries for frozen robots are ignored)."""
        world = self.world
        was_active = self.active()
        prev_pos = world.positions        # world.step writes a fresh array
        actions = [Action(float(a[0]), float(a[1])) if was_active[i] and a is not None
                   else Action(0.0, 0.0)
                   for i, a in enumerate(raw_actions)]
        report = world.step(actions)

        rewards, terms_list, dones = [], [], []
        for i, robot in enumerate(world.robots):
            if not was_active[i]:
                rewards.append(None)
                terms_list.append(None)
                dones.append(False)
                continue
            self._targets[i] = self._find_target(i)
            target = self._targets[i].position
            terms = reward_terms(robot.status, float(report.d_min[i]),
                                 prev_pos[i], robot.position, target)
            rewards.append(terms.total)
            terms_list.append(terms)
            self.episode_rewards[i] += terms.total
            done = robot.status != Status.ACTIVE
            dones.append(done)
            rec = self.records[i]
            rec.distance_traveled += float(np.hypot(*(robot.position - prev_pos[i])))
            if done:
                rec.travel_time = world.sim_time
                rec.outcome = robot.status.value
        self._sense()
        return StepResult(rewards=rewards, reward_terms=terms_list, dones=dones,
                          d_min=report.d_min)

    @property
    def done(self) -> bool:
        return self.world.all_done
