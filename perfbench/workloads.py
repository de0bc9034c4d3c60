"""The benchmark's four workloads.

A run repeats whole rounds of one workload until its time is used. An
evaluation round sets up one or more seeded trials (`scenarios.generate`,
then `NavEnv.reset`) and takes a fixed number of control steps from the
start of the last one's episode, each one `act`, `NavEnv.step`,
`NavEnv.observations`, the order `bench.run_episode` uses. A training round is one `ppo.train` call for a
fixed number of env steps, the way `multinav train` drives it. Every round
takes the same operations whatever the seed or the speed of the host, so a
faster program covers more rounds of the same work, never other work.

Correctness checks run after each timed interval, outside it.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from multinav import bench, policy, ppo, rollout, scenarios
from multinav.observations import AblationConfig, NoiseConfig
from multinav.scenarios import Kind, ScenarioSpec

import checks
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def round_seed(seed: int, trial: int) -> int:
    """Seed of one trial of a run with the given workload seed."""
    ss = np.random.SeedSequence([seed % 2**32, trial])
    return int(ss.generate_state(1)[0] % 2**31)


@dataclass
class Tally:
    """What one set of rounds measured: raw timed intervals, each with its
    start, scaled to the reference host once the run is over."""
    setups: list = field(default_factory=list)   # (start, wall)
    steps: list = field(default_factory=list)    # (start, wall, steps)
    agent_steps: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0

    def add_setup(self, start: float, end: float) -> None:
        self.setups.append((start, end - start))

    def add_steps(self, start: float, end: float, steps: int,
                  agent_steps: int) -> None:
        """One timed interval of `steps` equal steps."""
        self.steps.append((start, end - start, steps))
        self.agent_steps += agent_steps

    def setup_s(self, speed=None) -> list[float]:
        """Set-up times, scaled by `speed` unless it is None."""
        return [w * (speed.factor(t, w) if speed else 1.0)
                for t, w in self.setups]

    def step_s(self, speed=None) -> list[float]:
        return [w * (speed.factor(t, w) if speed else 1.0) / n
                for t, w, n in self.steps]

    def busy_s(self, speed=None) -> float:
        return sum(w * (speed.factor(t, w) if speed else 1.0)
                   for t, w, _ in self.steps)


@dataclass
class Run:
    seed: int
    speed: HostSpeed = field(default_factory=HostSpeed)
    plain: Tally = field(default_factory=Tally)     # rounds without tracing
    traced: Tally = field(default_factory=Tally)
    setup_problems: list = field(default_factory=list)
    plans: list = field(default_factory=list)       # deferred A* checks
    truth: list = field(default_factory=lambda: [0, 0])

    def report(self, problems) -> None:
        for p in problems[:5]:
            print(f"check failed: {p}", file=sys.stderr)


@contextmanager
def tracing(tracer, phase: str):
    """Trace the block under the given phase name; no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.phase = phase
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


class OrcaCapture:
    """Keeps the velocity of every `orca_velocity` call the ORCA controller
    makes, so the calls can be checked after the step."""

    def __init__(self):
        self.velocities: list = []
        self._original = None

    def install(self) -> None:
        original = self._original = bench.orca_velocity

        @functools.wraps(original)
        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.velocities.append(result[0])
            return result

        bench.orca_velocity = capture

    def uninstall(self) -> None:
        if self._original is not None:
            bench.orca_velocity = self._original
            self._original = None


@dataclass
class EvalWorkload:
    """A controller on one 15 m evaluation cell. A round sets up
    `setups_per_round` trials and steps the last one."""
    kind: Kind
    agents: int
    controller: str                  # "policy" or "orca"
    noise: bool
    steps_per_round: int
    setups_per_round: int = 1

    trial_phase = "setup"
    step_phase = "step"

    @property
    def agents_per_trial(self) -> int:
        return self.agents

    def start(self, run: Run) -> None:
        self.capture = None
        if self.controller == "orca":
            self.ctrl = bench.OrcaController()
            self.capture = OrcaCapture()
            self.capture.install()

    def finish(self, run: Run) -> None:
        if self.capture is not None:
            self.capture.uninstall()

    def final_checks(self, run: Run) -> list[str]:
        return checks.check_plans(run.plans)

    def _setup(self, run: Run, seed: int, tally: Tally, tracer):
        spec = scenarios.eval_suite(self.kind, self.agents, rng_seed=seed)
        noise = NoiseConfig() if self.noise else NoiseConfig.disabled()
        cfg = rollout.EnvConfig(noise=noise, ablation=AblationConfig(),
                                build_observations=self.controller == "policy")
        run.speed.tick()
        with tracing(tracer, self.trial_phase):
            t0 = perf_counter()
            scenario = scenarios.generate(spec)
            env = rollout.NavEnv(spec, cfg, seed=seed)
            obs = env.reset(scenario)
            tally.add_setup(t0, perf_counter())
        run.plans.append((env.grid, env.world.config.bounds, scenario.starts,
                          scenario.goals, env.paths))
        problems = checks.check_outcomes(env) + checks.check_clearance(env.world)
        if self.controller == "policy" and not self.noise:
            problems += checks.check_clean_perception(env)
        run.report(problems)
        run.setup_problems += problems
        return env, obs

    def round(self, run: Run, trial: int, tally: Tally, tracer) -> None:
        for j in range(self.setups_per_round):
            seed = round_seed(run.seed, trial * self.setups_per_round + j)
            env, obs = self._setup(run, seed, tally, tracer)
        if self.controller == "policy":
            # a seeded, untrained network with deterministic actions
            self.net = self.ctrl = None     # free the last round's network
            self.net = policy.ActorCritic(policy.PolicyConfig(), seed=seed)
            self.ctrl = bench.PolicyController(self.net, deterministic=True)
        clean_policy = self.controller == "policy" and not self.noise

        for _ in range(self.steps_per_round):
            if env.done:
                break
            before = checks.snapshot(env.world)
            n_active = before[1].count("active")
            live = [i for i, o in enumerate(obs) if o is not None]
            prev_obs = obs
            if self.capture is not None:
                self.capture.velocities.clear()
            tally.attempted += 1
            run.speed.tick()
            try:
                with tracing(tracer, self.step_phase):
                    t0 = perf_counter()
                    raws = self.ctrl.act(env, obs)
                    env.step(raws)
                    obs = env.observations()
                    t1 = perf_counter()
            except Exception:
                tally.failed += 1
                print(traceback.format_exc(), file=sys.stderr)
                break
            tally.add_steps(t0, t1, 1, n_active)

            problems = (checks.check_outcomes(env)
                        + checks.check_motion(before, env.world)
                        + checks.check_clearance(env.world))
            if self.capture is None:
                problems += checks.check_policy_rows(self.net, policy.batch_obs,
                                                     prev_obs, raws, live)
            else:
                problems += checks.check_orca_calls(self.capture.velocities,
                                                    n_active)
            if clean_policy:
                problems += checks.check_clean_perception(env)
            if problems:
                tally.failed += 1
                run.report(problems)
            if tracer is not None and self.controller == "policy":
                on_robot, total = checks.dynamic_track_truth(
                    env, env.cfg.noise.lidar_sigma)
                run.truth[0] += on_robot
                run.truth[1] += total
        tally.rounds += 1


@dataclass
class TrainWorkload:
    """`ppo.train` on a training config for a fixed number of env steps."""
    config: str
    env_steps: int
    setups_per_round: int = 5

    trial_phase = "train"
    step_phase = "train"

    def start(self, run: Run) -> None:
        # parse the config the way `multinav train` does
        with open(ROOT / self.config) as f:
            doc = json.load(f)
        self.specs = [ScenarioSpec.from_dict(d) for d in doc["scenarios"]]
        self.train_doc = doc.get("train", {})
        policy_doc = doc.get("policy")
        self.policy_cfg = None
        if policy_doc:
            for key in ("conv_channels", "trunk"):
                if key in policy_doc:
                    policy_doc[key] = tuple(policy_doc[key])
            self.policy_cfg = policy.PolicyConfig(**policy_doc)
        env_doc = doc.get("env", {})
        self.env_cfg = rollout.EnvConfig(horizon=env_doc.get("horizon", 5))
        if "ablation" in env_doc:
            self.env_cfg.ablation = AblationConfig.from_name(env_doc["ablation"])
        RESULTS.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="ppo-desk-", dir=RESULTS)

    def finish(self, run: Run) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def final_checks(self, run: Run) -> list[str]:
        return []

    @property
    def agents_per_trial(self) -> float:
        return sum(s.num_agents for s in self.specs) / len(self.specs)

    def round(self, run: Run, trial: int, tally: Tally, tracer) -> None:
        seed = round_seed(run.seed, trial)
        cfg = ppo.TrainConfig(**{**self.train_doc, "seed": seed,
                                 "total_env_steps": self.env_steps})
        env_specs = [self.specs[i % len(self.specs)]
                     for i in range(cfg.num_parallel_envs)]
        agents = sum(s.num_agents for s in env_specs)
        # set-up: the network and worlds `train` builds before its first
        # rollout, built here through the same calls
        for _ in range(self.setups_per_round):
            run.speed.tick()
            t0 = perf_counter()
            policy.ActorCritic(self.policy_cfg, seed=cfg.seed)
            envs = [rollout.NavEnv(spec, self.env_cfg, seed=cfg.seed * 10_000 + i)
                    for i, spec in enumerate(env_specs)]
            first_obs = [env.reset() for env in envs]
            tally.add_setup(t0, perf_counter())

        iterations = math.ceil(self.env_steps / (cfg.rollout_length * agents))
        tally.attempted += iterations
        out_dir = str(Path(self.work) / "train")
        run.speed.tick(force=True)
        try:
            with tracing(tracer, self.step_phase):
                t0 = perf_counter()
                result = ppo.train(self.specs, cfg, out_dir,
                                   policy_cfg=self.policy_cfg, env_cfg=self.env_cfg)
                t1 = perf_counter()
        except Exception:
            tally.failed += iterations
            print(traceback.format_exc(), file=sys.stderr)
            return
        env_steps = int(result.rows[-1][0]) if result.rows else 0
        run.speed.tick(force=True)
        tally.add_steps(t0, t1, iterations * cfg.rollout_length, env_steps)

        batch = policy.batch_obs([o for obs in first_obs for o in obs
                                  if o is not None])
        problems = checks.check_training(result, self.env_steps, agents,
                                         policy.ActorCritic.load, batch,
                                         str(Path(self.work) / "reloaded.json"))
        if len(result.rows) != iterations:
            problems.append(f"{len(result.rows)} iterations, expected {iterations}")
        if problems:
            tally.failed += iterations
            run.report(problems)
        tally.rounds += 1


# Round sizes. Circle-20: the noisy track population fills up within a few
# frames, so most of six steps see the steady tracker load. Doorway-10: the
# step cost depends on where the robots stand, so many short trials average
# the placements. Circle-40: the crowd's cost swings from step to step and
# 300 steps average it; three set-ups per round give `setup_s` samples
# without stepping three episodes. Desk: one iteration per `train` call
# keeps several rounds in a run.
WORKLOADS = {
    "policy-circle20-noise": lambda: EvalWorkload(Kind.CIRCLE, 20, "policy",
                                                  noise=True, steps_per_round=6),
    "policy-doorway10": lambda: EvalWorkload(Kind.DOORWAY, 10, "policy",
                                             noise=False, steps_per_round=2),
    "orca-circle40-noise": lambda: EvalWorkload(Kind.CIRCLE, 40, "orca",
                                                noise=True, steps_per_round=300,
                                                setups_per_round=3),
    "ppo-desk": lambda: TrainWorkload("configs/train_goal_task.json",
                                      env_steps=2048),
}
