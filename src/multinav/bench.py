"""Episode runner, the four evaluation metrics, trial aggregation, CSV
reporting and SVG replays.

Per-robot outcomes are exhaustive and exclusive: reached-goal without any
collision counts as success, a penetration freezes the robot as a
collision, and anything still traveling at the two-minute limit is stuck.
Extra time compares the realized travel time of successful robots against
the lower bound of driving their global path at full speed; it is reported
both in seconds and as a ratio of that bound.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .observations import AblationConfig, NoiseConfig
from .orca import nh_track, orca_planes, orca_velocity, preferred_velocity
from .policy import (ActionDistribution, ActorCritic, NumericalDivergence,
                     batch_obs, deterministic_action)
from .rollout import EnvConfig, NavEnv
from .scenarios import GeneratedScenario, ScenarioSpec, generate
from .sim import Action, Status, trajectory_record


class ConfigError(ValueError):
    pass


# ---- controllers -------------------------------------------------------------


class StraightController:
    """Drives straight at the running target point, no avoidance."""

    needs_observations = False
    name = "straight"

    def act(self, env: NavEnv, obs):
        raws = []
        for i, robot in enumerate(env.world.robots):
            if robot.status != Status.ACTIVE:
                raws.append(None)
                continue
            # no goal braking: the arrival tolerance exceeds one step of
            # travel, so driving flat out cannot overshoot the check
            desired = preferred_velocity(robot.position,
                                         env.target_point(i).position,
                                         goal_distance=math.inf)
            a = nh_track(desired, robot.heading)
            raws.append((a.v, a.w))
        return raws


class OrcaController:
    """Reciprocal collision avoidance from ground-truth neighbor states
    (noise-perturbed per the evaluation protocol), fed the same running
    target the learned policy sees. Each step builds the noisy feed and the
    half-planes once for all active robots; only the linear program,
    orca_velocity, runs per robot."""

    needs_observations = False
    name = "orca"

    def act(self, env: NavEnv, obs):
        world = env.world
        cfg = world.config
        raws = [None] * env.n_agents
        live = [i for i, s in enumerate(world.statuses) if s == Status.ACTIVE]
        planes = orca_planes(world.positions[live], world.velocities[live],
                             cfg.robot_radius, env.noisy_neighbor_states(live),
                             cfg.circles, cfg.walls, dt=cfg.dt)
        for i, lines in zip(live, planes):
            pos = world.positions[i]
            goal_dist = float(np.hypot(*(world.goals[i] - pos)))
            pref = preferred_velocity(pos, env.target_point(i).position,
                                      goal_distance=goal_dist)
            vel, _ = orca_velocity(lines, pref)
            a = nh_track(vel, float(world.headings[i]))
            raws[i] = (a.v, a.w)
        return raws


class PolicyController:
    """Runs a trained network on the full observation pipeline, acting on
    the clamped policy mean. Only deterministic=True is accepted: no caller
    samples actions through it."""

    needs_observations = True
    name = "policy"

    def __init__(self, net: ActorCritic, deterministic: bool = True):
        if not deterministic:
            raise ValueError("PolicyController acts deterministically only")
        self.net = net

    def act(self, env: NavEnv, obs):
        live = [i for i, o in enumerate(obs) if o is not None]
        raws = [None] * env.n_agents
        if not live:
            return raws
        mean, std = self.net.policy_batch(batch_obs([obs[i] for i in live]))
        for k, i in enumerate(live):
            a = deterministic_action(ActionDistribution(mean[k], std[k]))
            raws[i] = (a.v, a.w)
        return raws


# ---- logging -----------------------------------------------------------------


@dataclass
class LogFlags:
    """Optional record types; trajectory records are always written."""
    observations: bool = False
    rewards: bool = False
    scans: bool = False
    paths: bool = False
    tracks: bool = False


class JsonlLogger:
    def __init__(self, path: str, flags: LogFlags):
        self.f = open(path, "w")
        self.flags = flags

    def write(self, record: dict) -> None:
        self.f.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self.f.close()


def _log_step(logger: JsonlLogger, env: NavEnv, trial: int, step: int,
              raws, result) -> None:
    fl = logger.flags
    for i in range(env.n_agents):
        act = None if raws[i] is None else Action(*raws[i])
        rec = trajectory_record(env.world, i, step, act, float(result.d_min[i]))
        rec["type"] = "trajectory"
        rec["trial"] = trial
        logger.write(rec)
        if result.rewards[i] is None:
            continue
        if fl.rewards:
            t = result.reward_terms[i]
            logger.write({"type": "reward", "trial": trial, "step": step,
                          "agent": i, "goal": t.goal, "collision": t.collision,
                          "social": t.social, "progress": t.progress,
                          "total": t.total,
                          "target": [float(x)
                                     for x in env.target_point(i).position]})
    if fl.observations:
        for i in range(env.n_agents):
            if env.world.robots[i].status != Status.ACTIVE:
                continue
            b = env.observation_bundle(i)
            logger.write({"type": "observation", "trial": trial, "step": step,
                          "agent": i, "node_count": b.o_c.node_count,
                          "o_gp": [float(x) for x in b.o_gp],
                          "o_g": [float(x) for x in b.o_g]})
    if fl.scans:
        for i in range(env.n_agents):
            if env.world.robots[i].status != Status.ACTIVE:
                continue
            logger.write({"type": "scan", "trial": trial, "step": step,
                          "agent": i,
                          "ranges": [round(float(r), 4)
                                     for r in env.histories[i].frames[-1].ranges]})
    if fl.tracks:
        for i in range(env.n_agents):
            for t in env.trackers[i].dynamic_tracks():
                logger.write({"type": "track", "trial": trial, "step": step,
                              "agent": i, "id": t.id,
                              "closest": [float(x) for x in t.closest_point],
                              "velocity": [float(x) for x in t.velocity_estimate]})


# ---- episode + trials --------------------------------------------------------


def run_episode(env: NavEnv, controller, scenario: GeneratedScenario | None = None,
                logger: JsonlLogger | None = None, trial: int = 0):
    """Drive one episode to completion; returns the env for inspection.

    A controller that fails numerically mid-episode (NumericalDivergence or
    FloatingPointError) strands its robots: everything still active is
    recorded as stuck rather than crashing the trial. Any other exception
    propagates.
    """
    obs = env.reset(scenario)
    if logger is not None:
        logger.write({"type": "header", "trial": trial,
                      "scenario": env.scenario.to_dict(),
                      "controller": controller.name})
        if logger.flags.paths:
            for i, p in enumerate(env.paths):
                logger.write({"type": "path", "trial": trial, "agent": i,
                              "waypoints": [[round(float(x), 3) for x in wp]
                                            for wp in p.waypoints]})
    step = 0
    while not env.done:
        try:
            raws = controller.act(env, obs)
        except (NumericalDivergence, FloatingPointError):
            for robot, rec in zip(env.world.robots, env.records):
                if robot.status == Status.ACTIVE:
                    robot.status = Status.STUCK
                    rec.travel_time = env.world.sim_time
                    rec.outcome = Status.STUCK.value
            break
        result = env.step(raws)
        step += 1
        obs = env.observations()
        if logger is not None:
            _log_step(logger, env, trial, step, raws, result)
    return env


@dataclass
class EpisodeMetrics:
    scenario: str
    agents: int
    controller: str
    trials: int
    seed: int
    success_rate: float
    stuck_rate: float
    collision_rate: float
    extra_time_seconds: float
    extra_time_ratio: float
    average_speed: float
    lower_bounds: list = field(default_factory=list)

    CSV_FIELDS = ("scenario", "agents", "controller", "trials", "seed",
                  "success_rate", "stuck_rate", "collision_rate",
                  "extra_time_seconds", "extra_time_ratio", "average_speed")

    def csv_row(self) -> list[str]:
        out = []
        for f in self.CSV_FIELDS:
            v = getattr(self, f)
            out.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        return out


def _trial_outcomes(args):
    (spec_dict, controller_name, checkpoint, trial_seed, noise_on,
     ablation_name, log_path, log_flags, scenario_dict) = args
    spec = ScenarioSpec.from_dict(spec_dict)
    controller = make_controller(controller_name, checkpoint)
    ablation = AblationConfig.from_name(ablation_name)
    env_cfg = EnvConfig(noise=NoiseConfig(enabled=noise_on), ablation=ablation,
                        build_observations=controller.needs_observations
                        or log_flags is not None and (log_flags.observations
                                                      or log_flags.scans
                                                      or log_flags.tracks))
    env = NavEnv(replace(spec, rng_seed=trial_seed), env_cfg, seed=trial_seed)
    logger = None
    if log_path is not None:
        logger = JsonlLogger(log_path, log_flags or LogFlags())
    try:
        if scenario_dict is not None:
            scenario = GeneratedScenario.from_dict(scenario_dict)
        else:
            scenario = generate(replace(spec, rng_seed=trial_seed))
        run_episode(env, controller, scenario, logger, trial=trial_seed)
    finally:
        if logger is not None:
            logger.close()
    rows = []
    for robot, rec in zip(env.world.robots, env.records):
        speed = (rec.distance_traveled /
                 (rec.travel_time if rec.travel_time else env.world.sim_time))
        rows.append((robot.status.value, rec.travel_time, rec.lower_bound_time,
                     speed))
    return trial_seed, rows


def run_trials(spec: ScenarioSpec, controller_name: str, trials: int,
               noise_on: bool = False, ablation: str = "none",
               base_seed: int = 0, checkpoint: str | None = None,
               workers: int = 1, log_path: str | None = None,
               log_flags: LogFlags | None = None,
               fixed_scenario: GeneratedScenario | None = None,
               label: str | None = None) -> EpisodeMetrics:
    """Run seeded trials of one scenario/controller cell and aggregate the
    four metrics. Outcome counts are exhaustive by construction.

    With fixed_scenario, every trial replays that exact world; the seeds
    then drive only the sensor and neighbour-state noise, since every
    controller, the policy included, acts deterministically."""
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, not {trials}")
    if controller_name == "policy" and not checkpoint:
        raise ConfigError("the policy controller needs --checkpoint")
    scenario_dict = None if fixed_scenario is None else fixed_scenario.to_dict()
    jobs = []
    for k in range(trials):
        trial_seed = base_seed + k
        trial_log = None
        if log_path is not None:
            trial_log = log_path if trials == 1 else f"{log_path}.{trial_seed}"
        jobs.append((spec.to_dict(), controller_name, checkpoint, trial_seed,
                     noise_on, ablation, trial_log, log_flags, scenario_dict))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_outcomes, jobs))
    else:
        results = [_trial_outcomes(j) for j in jobs]
    results.sort(key=lambda r: r[0])  # order-independent aggregation

    counts = {"reached_goal": 0, "collided": 0, "stuck": 0}
    travel, bounds, speeds = [], [], []
    total = 0
    for _, rows in results:
        for status, travel_time, lower_bound, speed in rows:
            total += 1
            counts[status] += 1
            speeds.append(speed)
            if status == "reached_goal":
                travel.append(travel_time)
                bounds.append(lower_bound)
    assert counts["reached_goal"] + counts["collided"] + counts["stuck"] == total
    if travel:
        mean_travel = float(np.mean(travel))
        mean_bound = float(np.mean(bounds))
        extra_s = mean_travel - mean_bound
        extra_ratio = extra_s / mean_bound if mean_bound > 0 else math.nan
    else:
        extra_s = extra_ratio = math.nan
    return EpisodeMetrics(
        scenario=label or spec.kind.value, agents=spec.num_agents,
        controller=controller_name, trials=trials, seed=base_seed,
        success_rate=counts["reached_goal"] / total,
        stuck_rate=counts["stuck"] / total,
        collision_rate=counts["collided"] / total,
        extra_time_seconds=extra_s, extra_time_ratio=extra_ratio,
        average_speed=float(np.mean(speeds)),
        lower_bounds=bounds,
    )


def make_controller(name: str, checkpoint: str | None = None):
    if name == "straight":
        return StraightController()
    if name == "orca":
        return OrcaController()
    if name == "policy":
        if not checkpoint or not os.path.exists(checkpoint):
            raise ConfigError(f"missing checkpoint {checkpoint!r}")
        return PolicyController(ActorCritic.load(checkpoint))
    raise ConfigError(f"unknown controller {name!r}")


# ---- reporting ---------------------------------------------------------------


def report(metrics_list: list[EpisodeMetrics], csv_path: str) -> str:
    """Deterministic CSV plus a grid summary keyed scenario x agents."""
    lines = [",".join(EpisodeMetrics.CSV_FIELDS)]
    for m in metrics_list:
        lines.append(",".join(m.csv_row()))
    payload = "\n".join(lines) + "\n"
    with open(csv_path, "w", newline="") as f:
        f.write(payload)

    out = []
    controllers = sorted({m.controller for m in metrics_list})
    cells = sorted({(m.scenario, m.agents) for m in metrics_list})
    header = "metric/controller".ljust(22) + "".join(
        f"{s}({a})".rjust(16) for s, a in cells)
    for metric, fmt in (("success_rate", "{:.1%}"), ("stuck_rate", "{:.1%}"),
                        ("collision_rate", "{:.1%}"),
                        ("extra_time_ratio", "{:.3f}"),
                        ("average_speed", "{:.2f}")):
        out.append(metric)
        out.append(header)
        for c in controllers:
            row = f"  {c}".ljust(22)
            for cell in cells:
                match = [m for m in metrics_list
                         if (m.scenario, m.agents) == cell and m.controller == c]
                row += (fmt.format(getattr(match[0], metric)) if match
                        else "-").rjust(16)
            out.append(row)
        out.append("")
    return "\n".join(out)


# ---- SVG replay ----------------------------------------------------------------


def replay_svg(log_path: str, out_path: str) -> None:
    """Render the trajectories of one logged trial as a static SVG."""
    header = None
    tracks: dict[int, list] = {}
    with open(log_path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "header" and header is None:
                header = rec
            elif rec["type"] == "trajectory":
                tracks.setdefault(rec["agent"], []).append((rec["x"], rec["y"]))
    if header is None:
        raise ConfigError(f"{log_path} has no header record")
    scen = GeneratedScenario.from_dict(header["scenario"])
    xmin, ymin, xmax, ymax = scen.config.bounds
    scale = 60.0
    w, h = (xmax - xmin) * scale, (ymax - ymin) * scale

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return (ymax - y) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
             f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>']
    for c in scen.config.circles:
        parts.append(f'<circle cx="{sx(c.cx):.1f}" cy="{sy(c.cy):.1f}" '
                     f'r="{c.r * scale:.1f}" fill="#888"/>')
    for wall in scen.config.walls:
        bx0, by0, bx1, by1 = wall.aabb
        parts.append(f'<rect x="{sx(bx0):.1f}" y="{sy(by1):.1f}" '
                     f'width="{(bx1 - bx0) * scale:.1f}" '
                     f'height="{(by1 - by0) * scale:.1f}" fill="#444"/>')
    palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#17becf"]
    for i, pts in sorted(tracks.items()):
        color = palette[i % len(palette)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        gx, gy = scen.goals[i]
        parts.append(f'<circle cx="{sx(gx):.1f}" cy="{sy(gy):.1f}" r="4" '
                     f'fill="none" stroke="{color}"/>')
    parts.append("</svg>")
    with open(out_path, "w") as f:
        f.write("\n".join(parts))
