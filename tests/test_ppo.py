import math

import numpy as np
import pytest

from multinav.nn import Adam
from multinav.observations import N_MAX_NEIGHBORS
from multinav.policy import (ActorCritic, NumericalDivergence, PolicyConfig,
                             batch_obs, gaussian_log_prob)
from multinav.ppo import RolloutBuffer, TrainConfig, compute_gae, ppo_update
from test_obs import assert_same_batch, bundle_of, reference_batch_obs

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


def no_bootstrap(keys):
    raise AssertionError(f"streams {keys} should have ended done")


def make_buffer(net, n=12, seed=0, nodes=0):
    """Roll synthetic observations through the net so old log-probs are
    exactly the net's own (ratio = 1 on the first minibatch)."""
    rng = np.random.default_rng(seed)
    buf = RolloutBuffer(n)
    for k in range(n):
        obs = bundle_of(z3=rng.uniform(0.1, 1, (3, 12)),
                        extras=rng.uniform(-1, 1, 7),
                        nodes=rng.uniform(-1, 1, (nodes, 4))
                        if nodes else np.zeros((0, 4)))
        dist, value = net.forward_one(obs)
        raw = dist.mean + dist.std * rng.standard_normal(2)
        z = (raw - dist.mean) / dist.std
        logp = float(np.sum(-0.5 * z * z - np.log(dist.std)
                            - 0.5 * math.log(2 * math.pi)))
        buf.add([(0, 0)], batch_obs([obs]), raw[None], [float(rng.normal())],
                [value], [logp], [k == n - 1])
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
        buf.finish(no_bootstrap, 0.99, 0.95)
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
        buf.log_prob[:buf.n] -= math.log(1.5)
        buf.finish(no_bootstrap, 0.99, 0.95)
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
            buf.finish(no_bootstrap, 0.99, 0.95)
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
        buf.finish(no_bootstrap, 0.99, 0.95)
        buf.normalize_advantages()
        update(buf, net, self.cfg(ppo_epochs=3))
        assert np.array_equal(net.get_flat(), before)

    def test_divergence_restores_params(self):
        net = ActorCritic(TINY, seed=24)
        before = net.get_flat()
        buf = make_buffer(net)
        buf.finish(no_bootstrap, 0.99, 0.95)
        buf.advantages = np.full(buf.n, np.inf)
        buf.returns = np.zeros(buf.n)
        with pytest.raises(NumericalDivergence):
            update(buf, net, self.cfg(lr_actor=1e-3, lr_critic=1e-3))
        assert np.array_equal(net.get_flat(), before)

    def test_update_moves_toward_advantage(self):
        # positive-advantage actions become more likely after the update
        net = ActorCritic(TINY, seed=25)
        buf = make_buffer(net, n=32, seed=5)
        buf.finish(no_bootstrap, 0.99, 0.95)
        buf.normalize_advantages()
        rows = buf.order
        raws, old_logp, adv = buf.raw[rows], buf.log_prob[rows], buf.advantages
        cfg = self.cfg(lr_actor=1e-3, lr_critic=1e-3, ppo_epochs=4,
                       grad_clip=0.0)
        update(buf, net, cfg)
        mean, std, _ = net.forward_batch(buf.batch(rows))
        gains = (gaussian_log_prob(raws, mean, std) - old_logp) * np.sign(adv)
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
        # both agents act at every step, so their rows interleave in the
        # store; each stream's GAE still sees only its own rows
        buf = RolloutBuffer(6)
        obs = bundle_of(z3=np.zeros((3, 12)), extras=np.zeros(7),
                        nodes=np.zeros((0, 4)))
        batch = batch_obs([obs, obs])
        for t in range(3):
            buf.add([(0, 0), (0, 1)], batch, np.zeros((2, 2)), [0.0, 1.0],
                    [0.0, 0.0], [0.0, 0.0], [t == 2, t == 2])
        buf.finish(no_bootstrap, 0.5, 1.0)
        assert buf.n == 6
        # agent 0 rewards are 0 -> zero advantages; agent 1 rewards are 1
        adv0, _ = compute_gae([0, 0, 0], [0, 0, 0], [0, 0, 1], 0.0, 0.5, 1.0)
        adv1, _ = compute_gae([1, 1, 1], [0, 0, 0], [0, 0, 1], 0.0, 0.5, 1.0)
        assert np.allclose(buf.advantages, np.concatenate([adv0, adv1]))


class ReferenceBuffer:
    """The per-(env, agent) dict-of-lists buffer the store replaced, kept as
    the oracle for its order, its GAE and its minibatches."""

    def __init__(self):
        self.streams = {}

    def add(self, key, obs, raw, reward, value, log_prob, done):
        row = dict(obs=obs, raw=raw, reward=reward, value=value,
                   log_prob=log_prob, done=done)
        s = self.streams.setdefault(key, {f: [] for f in row})
        for f, v in row.items():
            s[f].append(v)

    def open_keys(self):
        return [k for k, s in self.streams.items() if not s["done"][-1]]

    def finish(self, boots, gamma, lam):
        adv, ret = [], []
        for key, s in self.streams.items():
            boot = 0.0 if s["done"][-1] else boots[key]
            a, r = compute_gae(s["reward"], s["value"], s["done"], boot,
                               gamma, lam)
            adv.append(a)
            ret.append(r)
        adv, self.returns = np.concatenate(adv), np.concatenate(ret)
        self.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)

    def flat(self, field):
        """One field of every row, stream after stream."""
        return [x for s in self.streams.values() for x in s[field]]


def synthetic_rollout(steps=40, agents=(3, 1, 4), seed=0):
    """Acting rows as train makes them, one batch per step, for parallel
    envs of the given robot counts. Robots freeze at random (done) and act
    no more until their env resets, which it does once all its robots are
    frozen. Some robots start the rollout frozen, so their streams first
    appear after step 0, after those of later envs. Node counts run from 0
    to N_MAX_NEIGHBORS."""
    rng = np.random.default_rng(seed)
    active = [[bool(rng.random() < 0.6) or i == 0 for i in range(n)]
              for n in agents]
    active[0][1] = False      # appears after a later env's robots
    late = {(e, i) for e, a in enumerate(active)
            for i, on in enumerate(a) if not on}
    ref = ReferenceBuffer()
    store = RolloutBuffer(steps * sum(agents))
    resets = 0
    for _ in range(steps):
        keys = [(e, i) for e, a in enumerate(active)
                for i, on in enumerate(a) if on]
        obs = []
        for _ in keys:
            has_nodes = rng.random() < 0.5
            k = int(rng.integers(0, N_MAX_NEIGHBORS + 1)) if has_nodes else 0
            obs.append(bundle_of(z3=rng.uniform(0, 1, (3, 12)),
                                 extras=rng.normal(size=7),
                                 nodes=rng.normal(size=(k, 4))))
        m = len(keys)
        raw = rng.normal(size=(m, 2))
        value = rng.normal(size=m)
        logp = rng.normal(size=m)
        reward = rng.normal(size=m).tolist()
        done = (rng.random(m) < 0.1).tolist()
        store.add(keys, batch_obs(obs), raw, reward, value, logp, done)
        for r, key in enumerate(keys):
            ref.add(key, obs[r], raw[r], reward[r], float(value[r]),
                    float(logp[r]), done[r])
            if done[r]:
                active[key[0]][key[1]] = False
        for e, a in enumerate(active):
            if not any(a):
                active[e] = [True] * len(a)
                resets += 1
    return ref, store, late, resets


class TestStoreMatchesReference:
    def finish_both(self, seed):
        ref, store, late, resets = synthetic_rollout(seed=seed)
        boot_rng = np.random.default_rng(seed + 100)
        boots = {k: float(boot_rng.normal()) for k in ref.open_keys()}
        asked = []

        def bootstrap(keys):
            asked.append(list(keys))
            return np.array([boots[k] for k in keys])

        ref.finish(boots, 0.99, 0.95)
        store.finish(bootstrap, 0.99, 0.95)
        store.normalize_advantages()
        assert asked == ([ref.open_keys()] if boots else [])
        return ref, store, late, resets

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_and_gae_byte_equal(self, seed):
        ref, store, late, resets = self.finish_both(seed)
        # the case this guards: streams that appear after step 0 are
        # numbered in first-appearance order, not by (env, agent)
        assert late & set(store.keys) and resets
        assert list(store.keys) == list(ref.streams)
        assert list(store.keys) != sorted(store.keys)
        assert store.advantages.tobytes() == ref.advantages.tobytes()
        assert store.returns.tobytes() == ref.returns.tobytes()
        assert (store.raw[store.order].tobytes()
                == np.array(ref.flat("raw")).tobytes())
        assert (store.log_prob[store.order].tobytes()
                == np.array(ref.flat("log_prob")).tobytes())

    @pytest.mark.parametrize("minibatch", [3, 16, 64])
    def test_minibatches_byte_equal(self, minibatch):
        ref, store, _, _ = self.finish_both(0)
        obs = ref.flat("obs")
        n = len(obs)
        assert n == store.n
        widths = set()
        perm_rng = np.random.default_rng(7)
        for _ in range(3):
            perm = perm_rng.permutation(n)
            for lo in range(0, n, minibatch):
                idx = perm[lo:lo + minibatch]
                want = reference_batch_obs([obs[i] for i in idx])
                assert_same_batch(store.batch(store.order[idx]), want)
                # the acting pass batches through batch_obs
                assert_same_batch(batch_obs([obs[i] for i in idx]), want)
                widths.add(want.nodes.shape[1])
        assert N_MAX_NEIGHBORS in widths
        if minibatch == 3:
            assert 0 in widths

    def test_update_reads_the_reference_minibatches(self):
        # ppo_update's own indexing: the batches it feeds the net are those
        # the reference builds from the same shuffle
        ref, store, _, _ = self.finish_both(1)
        obs = ref.flat("obs")
        net = ActorCritic(TINY, seed=30)
        seen = []
        forward = net.forward_batch

        def record(batch):
            seen.append(batch)
            return forward(batch)

        net.forward_batch = record
        cfg = TrainConfig(ppo_epochs=2, minibatch_size=16, lr_actor=0.0,
                          lr_critic=0.0)
        update(store, net, cfg)
        perm_rng = np.random.default_rng(0)
        want = []
        for _ in range(cfg.ppo_epochs):
            perm = perm_rng.permutation(len(obs))
            want += [reference_batch_obs([obs[i] for i in perm[lo:lo + 16]])
                     for lo in range(0, len(obs), 16)]
        assert len(seen) == len(want)
        for got, ref_batch in zip(seen, want):
            assert_same_batch(got, ref_batch)
