"""PPO with the clipped surrogate objective and GAE over vectorized
multi-agent rollouts.

All agents in all worlds act through one shared parameter set. Rollouts are
collected per (env, agent) stream so episode boundaries never leak across
the bootstrap; advantages are normalized per batch before each update.
Actor and critic use separate Adam optimizers with their own learning
rates. A non-finite loss aborts the update and restores the pre-update
parameters.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bench import PolicyController, run_episode
from .nn import Adam, clip_grad_norm
from .policy import (LOG_2PI, ActorCritic, NumericalDivergence, PolicyConfig,
                     batch_obs, gaussian_log_prob, gaussian_sample)
from .rollout import EnvConfig, NavEnv
from .scenarios import ScenarioSpec
from .sim import Status


@dataclass
class TrainConfig:
    lr_critic: float = 4e-4
    lr_actor: float = 2e-5
    entropy_coef: float = 0.0
    gamma: float = 0.99
    gae_lambda: float = 0.95
    ppo_epochs: int = 10
    clip: float = 0.2
    rollout_length: int = 512
    minibatch_size: int = 256
    num_parallel_envs: int = 8
    seed: int = 0
    total_env_steps: int = 300_000
    grad_clip: float = 0.5           # 0 disables
    eval_every: int = 16_384         # env steps between deterministic evals
    eval_episodes: int = 8
    checkpoint_every: int = 50_000

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.clip <= 0.0:
            raise ValueError("clip must be positive")
        # no rollout steps or no envs never advance env_steps, so train()
        # would loop forever; no minibatch or no epoch is no update
        for name in ("rollout_length", "num_parallel_envs", "minibatch_size",
                     "ppo_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def compute_gae(rewards, values, dones, bootstrap_value, gamma, lam):
    """Generalized advantage estimation over one stream.

    values[t] is V(s_t); bootstrap_value stands in for V(s_T) when the
    stream was cut mid-episode. A done flag stops both the TD target and
    the advantage recursion.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    t_len = len(rewards)
    if not (len(values) == len(dones) == t_len):
        raise ValueError("stream lengths differ")
    advantages = np.zeros(t_len)
    next_value = bootstrap_value
    gae = 0.0
    for t in range(t_len - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages, advantages + values


class RolloutBuffer:
    """Per-(env, agent) transition streams; advantages are filled in once a
    segment is complete and never mix across episode boundaries."""

    FIELDS = ("obs", "raw", "reward", "value", "log_prob", "done")

    def __init__(self):
        self.streams: dict = {}
        self.advantages = None
        self.returns = None

    def add(self, env_idx, agent_idx, obs, raw, reward, value, log_prob, done):
        s = self.streams.setdefault((env_idx, agent_idx),
                                    {f: [] for f in self.FIELDS})
        s["obs"].append(obs)
        s["raw"].append(raw)
        s["reward"].append(reward)
        s["value"].append(value)
        s["log_prob"].append(log_prob)
        s["done"].append(done)

    @property
    def size(self) -> int:
        return sum(len(s["reward"]) for s in self.streams.values())

    def finish(self, bootstrap_values: dict, gamma: float, lam: float) -> None:
        """Compute GAE per stream; bootstrap_values maps stream keys to
        V(s_T) for streams whose last transition was not terminal."""
        adv_chunks, ret_chunks = [], []
        for key in self.streams:
            s = self.streams[key]
            boot = 0.0 if s["done"][-1] else bootstrap_values[key]
            adv, ret = compute_gae(s["reward"], s["value"], s["done"], boot,
                                   gamma, lam)
            adv_chunks.append(adv)
            ret_chunks.append(ret)
        self.advantages = np.concatenate(adv_chunks) if adv_chunks else np.zeros(0)
        self.returns = np.concatenate(ret_chunks) if ret_chunks else np.zeros(0)

    def normalize_advantages(self) -> None:
        a = self.advantages
        self.advantages = (a - a.mean()) / (a.std() + 1e-8)

    def flat(self):
        obs, raws, logps = [], [], []
        for s in self.streams.values():
            obs.extend(s["obs"])
            raws.extend(s["raw"])
            logps.extend(s["log_prob"])
        return obs, np.array(raws), np.array(logps), self.advantages, self.returns


@dataclass
class UpdateReport:
    actor_loss: float
    critic_loss: float
    entropy: float
    kl: float
    clip_fraction: float


def ppo_update(buffer: RolloutBuffer, net: ActorCritic, cfg: TrainConfig,
               rng: np.random.Generator, actor_opt: Adam,
               critic_opt: Adam) -> UpdateReport:
    """Run the clipped-surrogate epochs over shuffled minibatches, stepping
    the actor's and the critic's optimizers.

    Expects buffer.finish() and normalize_advantages() to have run.
    """
    obs, raws, old_logp, adv, ret = buffer.flat()
    n = len(obs)
    snapshot = net.get_flat()
    actor_names = set(net.actor_param_names())

    stats = {k: [] for k in ("actor", "critic", "entropy", "kl", "clip")}
    try:
        for _ in range(cfg.ppo_epochs):
            order = rng.permutation(n)
            for lo in range(0, n, cfg.minibatch_size):
                idx = order[lo:lo + cfg.minibatch_size]
                m = len(idx)
                batch = batch_obs([obs[i] for i in idx])
                mean, std, value = net.forward_batch(batch)
                a = raws[idx]
                z = (a - mean) / std
                logp = gaussian_log_prob(a, mean, std)
                ratio = np.exp(logp - old_logp[idx])
                adv_b = adv[idx]
                unclipped = ratio * adv_b
                clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv_b
                actor_loss = -np.minimum(unclipped, clipped).mean()
                entropy = (0.5 * (1.0 + LOG_2PI) + np.log(std)).sum(axis=1).mean()
                if cfg.entropy_coef != 0.0:
                    actor_loss = actor_loss - cfg.entropy_coef * entropy
                verr = value - ret[idx]
                critic_loss = float((verr * verr).mean())
                if not (math.isfinite(actor_loss) and math.isfinite(critic_loss)):
                    raise NumericalDivergence("non-finite loss in ppo_update")

                # gradient of the surrogate: zero where the clip is active
                # and moving further out (flat branch of the min)
                flat = ((ratio > 1.0 + cfg.clip) & (adv_b > 0)) | \
                       ((ratio < 1.0 - cfg.clip) & (adv_b < 0))
                dlogp = np.where(flat, 0.0, -adv_b * ratio) / m
                gmean = dlogp[:, None] * (z / std)
                gstd = dlogp[:, None] * ((z * z - 1.0) / std)
                if cfg.entropy_coef != 0.0:
                    gstd = gstd - cfg.entropy_coef / (m * std)
                gvalue = 2.0 * verr / m

                net.zero_grad()
                net.backward_batch(gmean, gstd, gvalue)
                grads = net.named_grads()
                if cfg.grad_clip > 0.0:
                    clip_grad_norm({k: g for k, g in grads.items()
                                    if k in actor_names}, cfg.grad_clip)
                    clip_grad_norm({k: g for k, g in grads.items()
                                    if k not in actor_names}, cfg.grad_clip)
                if not all(np.isfinite(g).all() for g in grads.values()):
                    raise NumericalDivergence("non-finite gradient in ppo_update")
                actor_opt.step({k: grads[k] for k in actor_opt.params})
                critic_opt.step({k: grads[k] for k in critic_opt.params})

                stats["actor"].append(float(actor_loss))
                stats["critic"].append(critic_loss)
                stats["entropy"].append(float(entropy))
                stats["kl"].append(float((old_logp[idx] - logp).mean()))
                stats["clip"].append(float((np.abs(ratio - 1.0) > cfg.clip).mean()))
    except NumericalDivergence:
        net.set_flat(snapshot)
        raise
    return UpdateReport(
        actor_loss=float(np.mean(stats["actor"])),
        critic_loss=float(np.mean(stats["critic"])),
        entropy=float(np.mean(stats["entropy"])),
        kl=float(np.mean(stats["kl"])),
        clip_fraction=float(np.mean(stats["clip"])),
    )


def evaluate_policy(net: ActorCritic, spec: ScenarioSpec, env_cfg: EnvConfig,
                    episodes: int, seed: int) -> float:
    """Deterministic-policy success rate over fresh episodes, run by the
    benchmark's episode runner and policy controller."""
    reached = total = 0
    env = NavEnv(spec, env_cfg, seed=seed)
    controller = PolicyController(net)
    for _ in range(episodes):
        run_episode(env, controller)
        for r in env.world.robots:
            total += 1
            reached += r.status == Status.REACHED_GOAL
    return reached / max(total, 1)


@dataclass
class TrainResult:
    checkpoint_path: str
    curve_path: str
    rows: list = field(default_factory=list)
    final_success_rate: float = 0.0


CURVE_HEADER = ("step", "mean_reward", "success_rate", "actor_loss",
                "critic_loss", "kl", "clip_fraction")


def train(scenario_specs: list[ScenarioSpec], cfg: TrainConfig, out_dir: str,
          policy_cfg: PolicyConfig | None = None,
          env_cfg: EnvConfig | None = None) -> TrainResult:
    """Collect rollouts from parallel worlds under one shared policy, update
    with PPO, and emit checkpoints plus a training-curve CSV. The curve's
    success rate evaluates the first scenario spec."""
    os.makedirs(out_dir, exist_ok=True)
    env_cfg = env_cfg or EnvConfig()
    net = ActorCritic(policy_cfg, seed=cfg.seed)
    params = net.named_params()
    actor_opt = Adam({k: params[k] for k in net.actor_param_names()}, cfg.lr_actor)
    critic_opt = Adam({k: params[k] for k in net.critic_param_names()}, cfg.lr_critic)

    seeds = np.random.SeedSequence(cfg.seed)
    child = seeds.spawn(3)
    sample_rng = np.random.default_rng(child[0])
    shuffle_rng = np.random.default_rng(child[1])
    eval_seed = int(child[2].generate_state(1)[0] % 2**31)

    envs = [NavEnv(scenario_specs[i % len(scenario_specs)], env_cfg,
                   seed=cfg.seed * 10_000 + i)
            for i in range(cfg.num_parallel_envs)]
    obs = [env.reset() for env in envs]

    rows = []
    env_steps = 0
    next_eval = 0
    next_checkpoint = 0
    episode_rewards: list[float] = []
    success_rate = 0.0
    ckpt_path = os.path.join(out_dir, "policy.json")
    curve_path = os.path.join(out_dir, "training_curve.csv")

    while env_steps < cfg.total_env_steps:
        buffer = RolloutBuffer()
        for _ in range(cfg.rollout_length):
            # an observation is live exactly when its robot is active, and
            # only then does the step return a reward for it
            acting = [[i for i, o in enumerate(env_obs) if o is not None]
                      for env_obs in obs]
            acting_obs = [obs[e][i] for e, agents in enumerate(acting)
                          for i in agents]
            if acting_obs:
                mean, std, value = net.forward_batch(batch_obs(acting_obs))
                raw = gaussian_sample(mean, std, sample_rng)
                logp = gaussian_log_prob(raw, mean, std)
            first = 0
            for e, env in enumerate(envs):
                agents = acting[e]
                if not agents:
                    continue
                batch_rows = range(first, first + len(agents))
                first += len(agents)
                raws = [None] * env.n_agents
                for i, r in zip(agents, batch_rows):
                    raws[i] = raw[r]
                result = env.step(raws)
                for i, r in zip(agents, batch_rows):
                    buffer.add(e, i, obs[e][i], raw[r], result.rewards[i],
                               float(value[r]), float(logp[r]), result.dones[i])
                env_steps += len(agents)
                if env.done:
                    episode_rewards.append(float(env.episode_rewards.mean()))
                    obs[e] = env.reset()
                else:
                    obs[e] = env.observations()
            if env_steps >= cfg.total_env_steps:
                break

        # bootstrap streams that were cut mid-episode
        boots = {}
        open_keys = [key for key, s in buffer.streams.items() if not s["done"][-1]]
        live = [(key, obs[key[0]][key[1]]) for key in open_keys]
        live = [(key, o) for key, o in live if o is not None]
        if live:
            values = net.value_batch(batch_obs([o for _, o in live]))
            boots = {key: float(v) for (key, _), v in zip(live, values)}
        for key in open_keys:
            boots.setdefault(key, 0.0)

        buffer.finish(boots, cfg.gamma, cfg.gae_lambda)
        buffer.normalize_advantages()
        report = ppo_update(buffer, net, cfg, shuffle_rng, actor_opt, critic_opt)

        if env_steps >= next_eval:
            success_rate = evaluate_policy(net, scenario_specs[0], env_cfg,
                                           cfg.eval_episodes, eval_seed)
            next_eval += cfg.eval_every
        mean_reward = float(np.mean(episode_rewards[-32:])) if episode_rewards else 0.0
        rows.append((env_steps, mean_reward, success_rate, report.actor_loss,
                     report.critic_loss, report.kl, report.clip_fraction))
        if env_steps >= next_checkpoint:
            net.save(ckpt_path)
            next_checkpoint += cfg.checkpoint_every

    net.save(ckpt_path)
    with open(curve_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CURVE_HEADER)
        writer.writerows(rows)
    return TrainResult(checkpoint_path=ckpt_path, curve_path=curve_path,
                       rows=rows, final_success_rate=success_rate)
