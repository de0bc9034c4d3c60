import math

import numpy as np
import pytest

from multinav.nn import Adam
from multinav.observations import NormalizedObs
from multinav.policy import ActorCritic, NumericalDivergence, PolicyConfig
from multinav.ppo import RolloutBuffer, TrainConfig, compute_gae, ppo_update

TINY = PolicyConfig(n_beams=12, conv_channels=(3, 4), conv_kernel=3,
                    node_hidden=6, attention_heads=2, attention_head_dim=3,
                    score_dim=5, trunk=(12, 12))


def mc_advantages(rewards, values, gamma):
    """Oracle: discounted Monte-Carlo return minus baseline, for one full
    episode (terminal at the last step)."""
    g = 0.0
    out = np.zeros(len(rewards))
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g - values[t]
    return out


class TestComputeGae:
    def test_single_terminal_step(self):
        adv, ret = compute_gae([1.0], [0.0], [True], 0.0, 0.99, 0.95)
        assert adv[0] == 1.0
        assert ret[0] == 1.0

    def test_hand_recursion_case(self):
        # A_1 = 1; A_0 = 1 + 0.99 * 0.95 * 1 = 1.9405, reproduced exactly
        adv, _ = compute_gae([1.0, 1.0], [0.0, 0.0], [False, True], 0.0,
                             0.99, 0.95)
        assert adv[1] == 1.0
        assert adv[0] == 1.0 + 0.99 * 0.95

    def test_all_zero(self):
        adv, ret = compute_gae(np.zeros(5), np.zeros(5), np.zeros(5), 0.0,
                               0.99, 0.95)
        assert np.all(adv == 0.0)
        assert np.all(ret == 0.0)

    def test_lambda_one_equals_monte_carlo(self):
        rng = np.random.default_rng(110)
        for _ in range(20):
            t_len = int(rng.integers(2, 30))
            rewards = rng.normal(0, 1, t_len)
            values = rng.normal(0, 1, t_len)
            dones = np.zeros(t_len)
            dones[-1] = 1.0
            adv, _ = compute_gae(rewards, values, dones, 0.0, 0.99, 1.0)
            oracle = mc_advantages(rewards, values, 0.99)
            assert np.max(np.abs(adv - oracle)) < 1e-10

    def test_lambda_zero_equals_td_error(self):
        rng = np.random.default_rng(111)
        t_len = 25
        rewards = rng.normal(0, 1, t_len)
        values = rng.normal(0, 1, t_len)
        dones = np.zeros(t_len)
        dones[-1] = 1.0
        boot = 0.0
        adv, _ = compute_gae(rewards, values, dones, boot, 0.99, 0.0)
        next_v = np.concatenate([values[1:], [boot]])
        oracle = rewards + 0.99 * next_v * (1.0 - dones) - values
        assert np.max(np.abs(adv - oracle)) < 1e-10

    def test_bootstrap_used_when_not_done(self):
        adv, ret = compute_gae([0.0], [0.0], [False], 2.0, 0.5, 0.95)
        assert adv[0] == 1.0  # 0 + 0.5 * 2.0
        assert ret[0] == 1.0

    def test_episode_boundary_isolation(self):
        # a huge reward after a done flag changes nothing before the boundary
        rewards = [1.0, -1.0, 0.5, 0.0, 2.0]
        values = [0.3, -0.2, 0.1, 0.0, 0.4]
        dones = [False, False, True, False, True]
        a1, _ = compute_gae(rewards, values, dones, 0.0, 0.99, 0.95)
        rewards2 = list(rewards)
        rewards2[3] = 1e6
        a2, _ = compute_gae(rewards2, values, dones, 0.0, 0.99, 0.95)
        assert np.array_equal(a1[:3], a2[:3])
        assert a1[3] != a2[3]


def make_buffer(net, n=12, seed=0, nodes=0):
    """Roll synthetic observations through the net so old log-probs are
    exactly the net's own (ratio = 1 on the first minibatch)."""
    rng = np.random.default_rng(seed)
    buf = RolloutBuffer()
    for k in range(n):
        obs = NormalizedObs(z3=rng.uniform(0.1, 1, (3, 12)),
                            extras=rng.uniform(-1, 1, 7),
                            nodes=rng.uniform(-1, 1, (nodes, 4))
                            if nodes else np.zeros((0, 4)))
        dist, value = net.forward_one(obs)
        raw = dist.mean + dist.std * rng.standard_normal(2)
        z = (raw - dist.mean) / dist.std
        logp = float(np.sum(-0.5 * z * z - np.log(dist.std)
                            - 0.5 * math.log(2 * math.pi)))
        buf.add(0, 0, obs, raw, float(rng.normal()), value, logp,
                k == n - 1)
    return buf


def update(buf, net, cfg):
    """ppo_update with fresh actor and critic optimizers, as train builds
    them, and a seeded shuffle."""
    params = net.named_params()
    return ppo_update(
        buf, net, cfg, np.random.default_rng(0),
        Adam({k: params[k] for k in net.actor_param_names()}, cfg.lr_actor),
        Adam({k: params[k] for k in net.critic_param_names()}, cfg.lr_critic))


class TestPpoUpdate:
    def cfg(self, **kw):
        base = dict(ppo_epochs=1, minibatch_size=64, rollout_length=12,
                    lr_actor=0.0, lr_critic=0.0, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_identity_ratio_first_epoch(self):
        net = ActorCritic(TINY, seed=20)
        buf = make_buffer(net)
        buf.finish({}, 0.99, 0.95)
        buf.normalize_advantages()
        report = update(buf, net, self.cfg())
        # ratio = 1 everywhere: actor loss is -mean(normalized advantages) = 0
        assert abs(report.actor_loss) < 1e-9
        assert report.clip_fraction == 0.0
        assert abs(report.kl) < 1e-9

    def test_clip_formula_both_sides(self):
        # force ratio 1.5 by shifting old log-probs; advantages +1 and -1:
        # objective = mean(min(1.5*A, 1.2*A)) = mean(1.2, -1.5) = -0.15
        net = ActorCritic(TINY, seed=21)
        buf = make_buffer(net, n=2)
        for s in buf.streams.values():
            s["log_prob"] = [lp - math.log(1.5) for lp in s["log_prob"]]
        buf.finish({}, 0.99, 0.95)
        buf.advantages = np.array([1.0, -1.0])
        buf.returns = np.zeros(2)
        report = update(buf, net, self.cfg())
        assert report.actor_loss == pytest.approx(0.15, abs=1e-9)
        assert report.clip_fraction == 1.0

    def test_entropy_coef_zero_contributes_nothing(self):
        # identical nets, one updated with coef 0 twice: bit-identical; a
        # nonzero coef produces a different actor parameter trajectory
        def run(coef, seed=22):
            net = ActorCritic(TINY, seed=seed)
            buf = make_buffer(net)
            buf.finish({}, 0.99, 0.95)
            buf.normalize_advantages()
            cfg = self.cfg(lr_actor=1e-3, lr_critic=1e-3, entropy_coef=coef)
            update(buf, net, cfg)
            return net.get_flat()

        a = run(0.0)
        b = run(0.0)
        c = run(0.05)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_learning_rate_bit_identical(self):
        net = ActorCritic(TINY, seed=23)
        before = net.get_flat()
        buf = make_buffer(net)
        buf.finish({}, 0.99, 0.95)
        buf.normalize_advantages()
        update(buf, net, self.cfg(ppo_epochs=3))
        assert np.array_equal(net.get_flat(), before)

    def test_divergence_restores_params(self):
        net = ActorCritic(TINY, seed=24)
        before = net.get_flat()
        buf = make_buffer(net)
        buf.finish({}, 0.99, 0.95)
        buf.advantages = np.full(buf.size, np.inf)
        buf.returns = np.zeros(buf.size)
        with pytest.raises(NumericalDivergence):
            update(buf, net, self.cfg(lr_actor=1e-3, lr_critic=1e-3))
        assert np.array_equal(net.get_flat(), before)

    def test_update_moves_toward_advantage(self):
        # positive-advantage actions become more likely after the update
        net = ActorCritic(TINY, seed=25)
        buf = make_buffer(net, n=32, seed=5)
        buf.finish({}, 0.99, 0.95)
        buf.normalize_advantages()
        obs, raws, old_logp, adv, _ = buf.flat()
        cfg = self.cfg(lr_actor=1e-3, lr_critic=1e-3, ppo_epochs=4,
                       grad_clip=0.0)
        update(buf, net, cfg)
        gains = []
        for o, a, lp, ad in zip(obs, raws, old_logp, adv):
            dist, _ = net.forward_one(o)
            z = (a - dist.mean) / dist.std
            new_lp = float(np.sum(-0.5 * z * z - np.log(dist.std)
                                  - 0.5 * math.log(2 * math.pi)))
            gains.append((new_lp - lp) * np.sign(ad))
        assert np.mean(gains) > 0.0


class TestConfigValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            TrainConfig(gae_lambda=1.5)

    def test_clip_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(clip=0.0)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["rollout_length", "num_parallel_envs",
                                      "minibatch_size", "ppo_epochs"])
    def test_counts_at_least_one(self, name, value):
        # a zero rollout length or env count never advances train()'s step
        # counter, so it must be refused before training starts
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


class TestBufferStreams:
    def test_streams_isolated_per_agent(self):
        buf = RolloutBuffer()
        obs = NormalizedObs(z3=np.zeros((3, 12)), extras=np.zeros(7),
                            nodes=np.zeros((0, 4)))
        for agent in (0, 1):
            for t in range(3):
                buf.add(0, agent, obs, np.zeros(2), float(agent), 0.0, 0.0,
                        t == 2)
        buf.finish({}, 0.5, 1.0)
        assert buf.size == 6
        # agent 0 rewards are 0 -> zero advantages; agent 1 rewards are 1
        adv0, _ = compute_gae([0, 0, 0], [0, 0, 0], [0, 0, 1], 0.0, 0.5, 1.0)
        adv1, _ = compute_gae([1, 1, 1], [0, 0, 0], [0, 0, 1], 0.0, 0.5, 1.0)
        assert np.allclose(buf.advantages, np.concatenate([adv0, adv1]))
