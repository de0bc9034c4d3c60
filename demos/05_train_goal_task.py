"""Desk-scale PPO training on the single-agent goal task.

Trains a reduced network to drive an empty 5 m world toward randomized
goals, guided by the running target point of an A* path. Takes a couple of
minutes; the deterministic-eval success rate should climb toward 100%.

    python3 demos/05_train_goal_task.py [OUT_DIR]

writes the checkpoint and the training curve under OUT_DIR/goal_task_training
(default OUT_DIR: the current directory).
"""

import sys
from pathlib import Path

from multinav.policy import PolicyConfig
from multinav.ppo import TrainConfig, train
from multinav.scenarios import Kind, ScenarioSpec

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
out_dir.mkdir(parents=True, exist_ok=True)

spec = ScenarioSpec(kind=Kind.RANDOM, scale=5.0, num_agents=1,
                    num_obstacles=0, max_episode_time=15.0, rng_seed=0)
cfg = TrainConfig(
    lr_actor=3e-4,          # the full-scale default (2e-5) is far too slow here
    lr_critic=4e-4,
    rollout_length=256,
    minibatch_size=512,
    num_parallel_envs=8,
    total_env_steps=60_000,
    eval_every=10_000,
    eval_episodes=10,
    seed=1,
)

result = train([spec], cfg, str(out_dir / "goal_task_training"),
               policy_cfg=PolicyConfig.reduced())

print(f"\n{'step':>8} {'mean reward':>12} {'eval success':>13} {'critic loss':>12}")
for step, reward, success, _, critic, _, _ in result.rows:
    print(f"{step:8d} {reward:12.2f} {success:13.0%} {critic:12.3f}")
print(f"\ncheckpoint: {result.checkpoint_path}")
print(f"curve CSV:  {result.curve_path}")
