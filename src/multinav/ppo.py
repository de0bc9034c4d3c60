"""PPO with the clipped surrogate objective and GAE over vectorized
multi-agent rollouts.

All agents in all worlds act through one shared parameter set. One store,
RolloutBuffer, takes each step's acting rows once, as array rows. Its
learning order groups them into (env, agent) streams in first-appearance
order, so episode boundaries never leak across the bootstrap. A minibatch
is an index into the rows, its nodes as wide as its largest node count, as
batch_obs pads them: OpenBLAS rounds a product differently when its shape
changes. Advantages are normalized per batch before each update. Actor and
critic use separate Adam optimizers with their own learning rates. A
non-finite loss aborts the update and restores the pre-update parameters.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bench import PolicyController, run_episode
from .nn import Adam, clip_grad_norm
from .observations import N_MAX_NEIGHBORS
from .policy import (LOG_2PI, ActorCritic, BatchedObs, NumericalDivergence,
                     PolicyConfig, batch_obs, gaussian_log_prob,
                     gaussian_sample)
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
    """One row per transition in acting order. A stable sort by stream id,
    a stream's first-appearance rank, gives the learning order."""

    def __init__(self, capacity: int):
        self.n = 0
        self.keys: dict = {}             # (env, agent) -> stream id
        self.stream, self.node_count = np.zeros((2, capacity), dtype=np.intp)
        self.raw = np.zeros((capacity, 2))
        self.reward, self.value, self.log_prob = np.zeros((3, capacity))
        self.done = np.zeros(capacity, dtype=bool)
        self.z3 = self.extras = self.nodes = None   # shaped by the first add
        self.order = self.advantages = self.returns = None

    def add(self, keys, batch: BatchedObs, raw, reward, value, log_prob, done):
        """One row per (env, agent) key, observed as the rows of batch;
        nodes are zero-padded to N_MAX_NEIGHBORS."""
        if self.z3 is None:
            cap = len(self.stream)
            self.z3 = np.zeros((cap,) + batch.z3.shape[1:])
            self.extras = np.zeros((cap,) + batch.extras.shape[1:])
            self.nodes = np.zeros((cap, N_MAX_NEIGHBORS) + batch.nodes.shape[2:])
        rows = slice(self.n, self.n + len(keys))
        self.stream[rows] = [self.keys.setdefault(k, len(self.keys)) for k in keys]
        self.node_count[rows] = batch.mask.sum(axis=1)
        self.nodes[rows, :batch.nodes.shape[1]] = batch.nodes
        self.z3[rows], self.extras[rows] = batch.z3, batch.extras
        self.raw[rows], self.reward[rows], self.done[rows] = raw, reward, done
        self.value[rows], self.log_prob[rows] = value, log_prob
        self.n = rows.stop

    def finish(self, bootstrap, gamma: float, lam: float) -> None:
        """Compute GAE per stream. bootstrap maps the keys of the streams
        whose last row is not done, in stream order, to their V(s_T)."""
        stream = self.stream[:self.n]
        self.order = np.argsort(stream, kind="stable")
        counts = np.bincount(stream)
        ends = np.cumsum(counts)
        open_keys = [k for k, d in zip(self.keys, self.done[self.order[ends - 1]])
                     if not d]
        boots = dict(zip(open_keys, bootstrap(open_keys))) if open_keys else {}
        self.advantages, self.returns = np.zeros((2, self.n))
        for key, lo, hi in zip(self.keys, ends - counts, ends):
            rows = self.order[lo:hi]
            boot = 0.0 if self.done[rows[-1]] else boots[key]
            self.advantages[lo:hi], self.returns[lo:hi] = compute_gae(
                self.reward[rows], self.value[rows], self.done[rows], boot,
                gamma, lam)

    def normalize_advantages(self) -> None:
        a = self.advantages
        self.advantages = (a - a.mean()) / (a.std() + 1e-8)

    def batch(self, rows) -> BatchedObs:
        """The rows' observations, nodes cut to their largest node count."""
        counts = self.node_count[rows]
        width = int(counts.max(initial=0))
        return BatchedObs(z3=self.z3[rows], extras=self.extras[rows],
                          nodes=self.nodes[rows, :width],
                          mask=np.arange(width) < counts[:, None])


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

    Expects buffer.finish() and normalize_advantages() to have run. A
    minibatch is a slice of a permutation of the learning order.
    """
    snapshot = net.get_flat()
    actor_names = set(net.actor_param_names())

    stats = []      # (actor, critic, entropy, kl, clip) per minibatch
    try:
        for _ in range(cfg.ppo_epochs):
            perm = rng.permutation(buffer.n)
            for lo in range(0, buffer.n, cfg.minibatch_size):
                idx = perm[lo:lo + cfg.minibatch_size]
                rows = buffer.order[idx]
                m = len(idx)
                mean, std, value = net.forward_batch(buffer.batch(rows))
                a = buffer.raw[rows]
                old_logp = buffer.log_prob[rows]
                z = (a - mean) / std
                logp = gaussian_log_prob(a, mean, std)
                ratio = np.exp(logp - old_logp)
                adv_b = buffer.advantages[idx]
                unclipped = ratio * adv_b
                clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv_b
                actor_loss = -np.minimum(unclipped, clipped).mean()
                entropy = (0.5 * (1.0 + LOG_2PI) + np.log(std)).sum(axis=1).mean()
                if cfg.entropy_coef != 0.0:
                    actor_loss = actor_loss - cfg.entropy_coef * entropy
                verr = value - buffer.returns[idx]
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

                stats.append((float(actor_loss), critic_loss, float(entropy),
                              float((old_logp - logp).mean()),
                              float((np.abs(ratio - 1.0) > cfg.clip).mean())))
    except NumericalDivergence:
        net.set_flat(snapshot)
        raise
    return UpdateReport(*(float(np.mean(col)) for col in zip(*stats)))


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

    capacity = cfg.rollout_length * sum(env.n_agents for env in envs)
    with open(curve_path, "w", newline="") as f:
        csv.writer(f).writerow(CURVE_HEADER)

    while env_steps < cfg.total_env_steps:
        buffer = RolloutBuffer(capacity)
        for _ in range(cfg.rollout_length):
            # an observation is live exactly when its robot is active, and
            # only then does the step return a reward for it
            acting = [[i for i, o in enumerate(env_obs) if o is not None]
                      for env_obs in obs]
            keys = [(e, i) for e, agents in enumerate(acting) for i in agents]
            batch = batch_obs([obs[e][i] for e, i in keys])
            mean, std, value = net.forward_batch(batch)
            raw = gaussian_sample(mean, std, sample_rng)
            logp = gaussian_log_prob(raw, mean, std)
            # every env has an active robot: one with none is done and reset
            rewards, dones = [], []
            raw_rows = iter(raw)
            for e, env in enumerate(envs):
                agents = acting[e]
                raws = [None] * env.n_agents
                for i in agents:
                    raws[i] = next(raw_rows)
                result = env.step(raws)
                rewards += [result.rewards[i] for i in agents]
                dones += [result.dones[i] for i in agents]
                env_steps += len(agents)
                if env.done:
                    episode_rewards.append(float(env.episode_rewards.mean()))
                    obs[e] = env.reset()
                else:
                    obs[e] = env.observations()
            buffer.add(keys, batch, raw, rewards, value, logp, dones)
            if env_steps >= cfg.total_env_steps:
                break

        # bootstrap streams that were cut mid-episode: their robots are still
        # active, so each has an observation
        buffer.finish(lambda keys: net.value_batch(
            batch_obs([obs[e][i] for e, i in keys])), cfg.gamma, cfg.gae_lambda)
        buffer.normalize_advantages()
        report = ppo_update(buffer, net, cfg, shuffle_rng, actor_opt, critic_opt)

        if env_steps >= next_eval:
            success_rate = evaluate_policy(net, scenario_specs[0], env_cfg,
                                           cfg.eval_episodes, eval_seed)
            next_eval += cfg.eval_every
        mean_reward = float(np.mean(episode_rewards[-32:])) if episode_rewards else 0.0
        rows.append((env_steps, mean_reward, success_rate, report.actor_loss,
                     report.critic_loss, report.kl, report.clip_fraction))
        # on disk at once: a run that diverges or is killed keeps its rows
        with open(curve_path, "a", newline="") as f:
            csv.writer(f).writerow(rows[-1])
        if env_steps >= next_checkpoint:
            net.save(ckpt_path)
            next_checkpoint += cfg.checkpoint_every

    net.save(ckpt_path)
    return TrainResult(checkpoint_path=ckpt_path, curve_path=curve_path,
                       rows=rows, final_success_rate=success_rate)
