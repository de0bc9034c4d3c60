"""Regenerate the fixed-seed metrics CSV set and two training runs' outputs,
and print one sha256 per file; the second run's two files share one.

    python3 tools/csv_digest.py OUT_DIR

Runs `multinav run` for the straight and ORCA controllers (2 trials) and the
policy (1 trial, on a checkpoint saved from `ActorCritic(PolicyConfig(),
seed=0)`), each with and without `--noise`, on circle-20 (seed 0),
doorway-10 (seed 3), random-10 (seed 5) and hallway-8 (seed 7): 24 CSVs.
Then runs `multinav train --config configs/train_goal_task.json` and hashes
its `training_curve.csv` and `policy.json`. Then it reruns the noisy policy
trial on circle-20 with `--log --log-tracks --log-obs` and hashes the JSONL,
which holds every step's tracks and neighbour-graph sizes. Last, it trains
CROWD_CONFIG, a noisy multi-robot run (two envs of circle-6 at 4 m, 4 s
episodes, the reduced net, `rollout_length` 32, 1,500 env steps, seed 3),
and hashes its curve and checkpoint together: 28 lines in all. Its
rollouts interleave twelve (env, robot) streams step by step and reset
envs mid-rollout, which the one-robot desk run never does. The package is
imported from this tree's `src`, so running the script in two checkouts and
diffing the printed lines checks that a change keeps the metrics, both
training runs and the tracker output byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from multinav.cli import main  # noqa: E402
from multinav.policy import ActorCritic, PolicyConfig  # noqa: E402

CELLS = (("circle", 20, 0), ("doorway", 10, 3), ("random", 10, 5),
         ("hallway", 8, 7))
CONTROLLERS = (("straight", 2), ("orca", 2), ("policy", 1))
TRAIN_CONFIG = os.path.join(ROOT, "configs", "train_goal_task.json")
TRAIN_FILES = ("training_curve.csv", "policy.json")
# the multi-robot training run: its rows interleave streams
CROWD_CONFIG = {
    "scenarios": [{"kind": "circle", "scale": 4.0, "num_agents": 6,
                   "rng_seed": 3, "max_episode_time": 4.0}],
    "train": {"rollout_length": 32, "minibatch_size": 128, "ppo_epochs": 4,
              "num_parallel_envs": 2, "total_env_steps": 1500,
              "eval_every": 10**9, "eval_episodes": 1, "seed": 3},
    "policy": {"conv_channels": [4, 8], "conv_kernel": 3, "node_hidden": 8,
               "attention_heads": 2, "attention_head_dim": 4, "score_dim": 8,
               "trunk": [32, 32]},
    "env": {"noise": True},
}


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"multinav {' '.join(argv)} exited {code}")


def _sha256(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def digest(out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, "policy-seed0.json")
    ActorCritic(PolicyConfig(), seed=0).save(ckpt)
    lines = []
    for scenario, agents, seed in CELLS:
        for controller, trials in CONTROLLERS:
            for noise in (False, True):
                name = (f"{controller}-{scenario}{agents}-seed{seed}"
                        f"{'-noise' if noise else ''}.csv")
                out = os.path.join(out_dir, name)
                argv = ["run", "--scenario", scenario, "--agents", str(agents),
                        "--controller", controller, "--trials", str(trials),
                        "--seed", str(seed), "--out", out]
                if controller == "policy":
                    argv += ["--checkpoint", ckpt]
                if noise:
                    argv.append("--noise")
                _run(argv)
                lines.append(f"{_sha256(out)}  {name}")
    train_dir = os.path.join(out_dir, "train")
    _run(["train", "--config", TRAIN_CONFIG, "--out", train_dir])
    for name in TRAIN_FILES:
        lines.append(f"{_sha256(os.path.join(train_dir, name))}  train/{name}")
    log = os.path.join(out_dir, "policy-circle20-seed0-noise-tracks.jsonl")
    _run(["run", "--scenario", "circle", "--agents", "20", "--controller",
          "policy", "--checkpoint", ckpt, "--noise", "--trials", "1",
          "--seed", "0", "--out", os.path.join(out_dir, "tracks-run.csv"),
          "--log", log, "--log-tracks", "--log-obs"])
    lines.append(f"{_sha256(log)}  {os.path.basename(log)}")
    crowd_config = os.path.join(out_dir, "train-circle6-noise.json")
    with open(crowd_config, "w") as f:
        json.dump(CROWD_CONFIG, f)
    crowd_dir = os.path.join(out_dir, "train-circle6-noise")
    _run(["train", "--config", crowd_config, "--out", crowd_dir])
    lines.append(f"{_sha256(*(os.path.join(crowd_dir, n) for n in TRAIN_FILES))}"
                 f"  train-circle6-noise/{'+'.join(TRAIN_FILES)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    for line in digest(sys.argv[1]):
        print(line, flush=True)
