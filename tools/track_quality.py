"""Measure how well the tracker follows moving robots, clean and noisy.

    python3 tools/track_quality.py [--seeds N] [--steps N]

Runs ORCA on circle-12 at 8 m scale (`ScenarioSpec(Kind.CIRCLE, scale=8,
num_agents=12, rng_seed=seed)`, env seed = seed) for seeds 0..N-1 (default
3) and N control steps each (default 120), with sensing on, so that every
active robot's tracker runs on its own LiDAR scan each step. It runs once
without noise and once under the evaluation noise protocol, and prints per
run three numbers over all seeds:

- spawns: new tracks per observer-step. An observer-step is one active
  robot's tracker update after a control step; the update at reset, which
  spawns a track for every robot in view, is not counted, nor are its
  spawns. A spawn is a track the update started: one of age 1 after it,
  since a matched track ages by one each frame.
- velocity RMS (m/s): the RMS of the velocity error over every live track
  (matched or spawned this frame) at least 6 frames old, after each
  counted update. A track's ground truth is the other robot whose disc
  surface lies nearest its closest point, within 0.2 m; a track with no
  robot that near is left out.
- age (frames): the mean age of those live tracks, all ages counted.

BLAS is pinned to one thread before numpy loads, and the package is
imported from this tree, as in `perfbench/run.py`, so two checkouts
compare on the same inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCALE, AGENTS = 8.0, 12
MIN_AGE = 6                 # frames: younger tracks carry no velocity yet
TRUTH_RADIUS = 0.2          # m from a robot's disc surface


def load_perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(noise: bool, seeds: int, steps: int) -> dict:
    """spawns per observer-step, velocity RMS and mean age, over seeds."""
    import numpy as np

    from multinav.bench import OrcaController
    from multinav.observations import NoiseConfig
    from multinav.rollout import EnvConfig, NavEnv
    from multinav.scenarios import Kind, ScenarioSpec
    from multinav.sim import Status

    spawns = observer_steps = 0
    errors2, ages = [], []
    for seed in range(seeds):
        spec = ScenarioSpec(kind=Kind.CIRCLE, scale=SCALE, num_agents=AGENTS,
                            rng_seed=seed)
        env = NavEnv(spec, EnvConfig(noise=NoiseConfig(enabled=noise)),
                     seed=seed)
        env.reset()
        controller = OrcaController()
        for _ in range(steps):
            if env.done:
                break
            env.step(controller.act(env, None))    # ORCA reads no observation
            world = env.world
            radius = world.config.robot_radius
            for i, tracker in enumerate(env.trackers):
                if world.statuses[i] != Status.ACTIVE:
                    continue
                observer_steps += 1
                tracks = tracker.dynamic_tracks()
                spawns += sum(t.age == 1 for t in tracks)
                ages += [t.age for t in tracks]
                old = [t for t in tracks if t.age >= MIN_AGE]
                if not old:
                    continue
                closest = np.array([t.closest_point for t in old])
                surface = np.abs(np.linalg.norm(
                    closest[:, None] - world.positions, axis=2) - radius)
                surface[:, i] = np.inf
                robot = surface.argmin(axis=1)
                near = surface[np.arange(len(old)), robot] <= TRUTH_RADIUS
                error = (np.array([t.velocity_estimate for t in old])
                         - world.velocities[robot])[near]
                errors2 += (error * error).sum(axis=1).tolist()
    return {"spawns": spawns / observer_steps,
            "velocity_rms": float(np.sqrt(np.mean(errors2))),
            "age": float(np.mean(ages))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--steps", type=int, default=120)
    args = p.parse_args(argv)
    run = load_perfbench_run()
    run.pin_blas()
    run.use_checkout_source()
    for noise in (False, True):
        m = measure(noise, args.seeds, args.steps)
        print(f"{'noisy' if noise else 'clean'}: spawns {m['spawns']:.4f} per "
              f"observer-step, velocity RMS {m['velocity_rms']:.4f} m/s "
              f"(tracks >= {MIN_AGE} frames), mean age {m['age']:.2f} frames")
    return 0


if __name__ == "__main__":
    sys.exit(main())
