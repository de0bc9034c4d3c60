import base64
import copy
import json
import math

import numpy as np
import pytest

from multinav.nn import ReLU, softplus_grad
from multinav.policy import (ActionDistribution, ActorCritic, NumericalDivergence,
                             PolicyConfig, batch_obs, deterministic_action,
                             gaussian_log_prob, gaussian_sample)
from multinav.sim import Action, clamp_action
from test_obs import bundle_of

TINY = PolicyConfig(n_beams=12, conv_channels=(3, 4), conv_kernel=3,
                    node_hidden=6, attention_heads=2, attention_head_dim=3,
                    score_dim=5, trunk=(12, 12))


def obs_of(rng, n_beams=120, n_nodes=0):
    return bundle_of(
        z3=rng.uniform(0.1, 1.0, (3, n_beams)),
        extras=rng.uniform(-1, 1, 7),
        nodes=rng.uniform(-1, 1, (n_nodes, 4)) if n_nodes else np.zeros((0, 4)),
    )


class TestEncoders:
    def test_static_deterministic(self):
        net = ActorCritic(seed=1)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (1, 1, 120))
        a = net.actor.encode_static(x)
        b = net.actor.encode_static(x)
        assert np.array_equal(a, b)

    def test_static_all_max_range_finite(self):
        net = ActorCritic(seed=1)
        out = net.actor.encode_static(np.ones((1, 1, 120)))
        assert np.isfinite(out).all()

    def test_circular_padding_no_edge_artifacts(self):
        # constant input is shift-symmetric; at stride 1 circular padding
        # makes every beam equivalent, so the fd gradient of the summed
        # encoding w.r.t. beam 0 must match beam 119 (no seam)
        cfg = PolicyConfig(conv_stride=1)
        net = ActorCritic(cfg, seed=2)
        x = np.full((1, 1, 120), 0.5)
        eps = 1e-6

        def f(xp):
            return float(net.actor.encode_static(xp).sum())

        grads = []
        for k in (0, 119):
            xp, xm = x.copy(), x.copy()
            xp[0, 0, k] += eps
            xm[0, 0, k] -= eps
            grads.append((f(xp) - f(xm)) / (2 * eps))
        assert grads[0] == pytest.approx(grads[1], abs=1e-6)

    def test_strided_seam_stays_mild(self):
        # two stride-2 layers repeat beam coverage with period 4; the wrap
        # seam must not add artifacts beyond that (beam 0 vs beam 4)
        net = ActorCritic(seed=2)
        x = np.full((1, 1, 120), 0.5)
        eps = 1e-6

        def grad_at(k):
            xp, xm = x.copy(), x.copy()
            xp[0, 0, k] += eps
            xm[0, 0, k] -= eps
            return (float(net.actor.encode_static(xp).sum())
                    - float(net.actor.encode_static(xm).sum())) / (2 * eps)

        assert grad_at(0) == pytest.approx(grad_at(4), abs=1e-6)
        assert grad_at(119) == pytest.approx(grad_at(115), abs=1e-6)

    def test_temporal_distinguishes_motion(self):
        net = ActorCritic(seed=3)
        same = np.full((1, 3, 120), 0.5)
        moving = same.copy()
        moving[0, 2, :] = 0.4
        a = net.actor.encode_temporal(same)
        b = net.actor.encode_temporal(moving)
        assert not np.allclose(a, b)

    def test_temporal_zero_input_finite(self):
        net = ActorCritic(seed=3)
        out = net.actor.encode_temporal(np.zeros((1, 3, 120)))
        assert np.isfinite(out).all()


class TestGraphEncoder:
    def test_empty_graph_null_embedding(self):
        net = ActorCritic(seed=4)
        out = net.actor.encode_graph(np.zeros((1, 0, 4)), np.zeros((1, 0), bool))
        assert np.isfinite(out).all()
        assert np.array_equal(out[0], net.actor.pool.null)

    def test_permutation_invariance(self):
        net = ActorCritic(seed=5)
        rng = np.random.default_rng(50)
        nodes = rng.uniform(-1, 1, (1, 7, 4))
        mask = np.ones((1, 7), bool)
        base = net.actor.encode_graph(nodes, mask)
        for _ in range(10):
            perm = rng.permutation(7)
            out = net.actor.encode_graph(nodes[:, perm], mask)
            assert np.max(np.abs(out - base)) < 1e-6

    def test_duplicate_node_changes_output(self):
        net = ActorCritic(seed=6)
        rng = np.random.default_rng(51)
        nodes = rng.uniform(-1, 1, (1, 3, 4))
        mask3 = np.ones((1, 3), bool)
        dup = np.concatenate([nodes, nodes[:, :1]], axis=1)
        mask4 = np.ones((1, 4), bool)
        a = net.actor.encode_graph(nodes, mask3)
        b = net.actor.encode_graph(dup, mask4)
        assert not np.allclose(a, b)


class TestForward:
    def test_reproducible_outputs(self):
        rng = np.random.default_rng(60)
        obs = obs_of(rng, n_nodes=3)
        n1 = ActorCritic(seed=7)
        n2 = ActorCritic(seed=7)
        d1, v1 = n1.forward_one(obs)
        d2, v2 = n2.forward_one(obs)
        assert np.array_equal(d1.mean, d2.mean)
        assert np.array_equal(d1.std, d2.std)
        assert v1 == v2

    def test_sigma_strictly_positive(self):
        net = ActorCritic(seed=8)
        rng = np.random.default_rng(61)
        for _ in range(20):
            dist, _ = net.forward_one(obs_of(rng, n_nodes=int(rng.integers(0, 5))))
            assert np.all(dist.std > 0)

    def test_divergence_detected(self):
        net = ActorCritic(seed=9)
        net.mean_head.w[...] = np.inf
        rng = np.random.default_rng(62)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalDivergence):
            net.forward_one(obs_of(rng))

    def test_shared_params_identical_outputs(self):
        # one parameter set, identical bundles: repeated evaluation is
        # byte-identical; batched rows agree to BLAS blocking noise
        net = ActorCritic(seed=10)
        rng = np.random.default_rng(63)
        obs = obs_of(rng, n_nodes=2)
        d1, v1 = net.forward_one(obs)
        d2, v2 = net.forward_one(obs)
        assert np.array_equal(d1.mean, d2.mean)
        assert np.array_equal(d1.std, d2.std)
        assert v1 == v2
        mean, std, value = net.forward_batch(batch_obs([obs, obs, obs]))
        assert np.allclose(mean[0], mean[2], atol=1e-12)
        assert np.allclose(value[0], value[2], atol=1e-12)

    def test_mixed_batch_matches_single(self):
        net = ActorCritic(seed=11)
        rng = np.random.default_rng(64)
        o1, o2 = obs_of(rng, n_nodes=3), obs_of(rng, n_nodes=0)
        m, s, v = net.forward_batch(batch_obs([o1, o2]))
        d1, v1 = net.forward_one(o1)
        d2, v2 = net.forward_one(o2)
        assert np.allclose(m[0], d1.mean, atol=1e-12)
        assert np.allclose(m[1], d2.mean, atol=1e-12)
        assert v[0] == pytest.approx(v1, abs=1e-12)
        assert v[1] == pytest.approx(v2, abs=1e-12)


class TestGradientCheck:
    def loss_and_grads(self, net, batch, actions):
        net.zero_grad()
        mean, std, value = net.forward_batch(batch)
        z = (actions - mean) / std
        loss = float(np.sum(-0.5 * z * z - np.log(std)) + value.sum())
        gmean = z / std
        gstd = (z * z - 1.0) / std
        gvalue = np.ones_like(value)
        net.backward_batch(gmean, gstd, gvalue)
        return loss, net.named_grads()

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(90)
        net = ActorCritic(TINY, seed=12)
        obs = [
            bundle_of(z3=rng.uniform(0.1, 1, (3, 12)),
                      extras=rng.uniform(-1, 1, 7),
                      nodes=rng.uniform(-1, 1, (3, 4))),
            bundle_of(z3=rng.uniform(0.1, 1, (3, 12)),
                      extras=rng.uniform(-1, 1, 7),
                      nodes=np.zeros((0, 4))),  # exercises the null path
        ]
        batch = batch_obs(obs)
        actions = rng.normal(0.3, 0.5, (2, 2))
        _, grads = self.loss_and_grads(net, batch, actions)
        analytic = {k: g.copy() for k, g in grads.items()}

        flat = net.get_flat()
        eps = 1e-6
        worst = 0.0
        params = net.named_params()
        offset = 0
        for name, arr in params.items():
            g = analytic[name].ravel()
            for j in range(arr.size):
                i = offset + j
                saved = flat[i]
                flat[i] = saved + eps
                net.set_flat(flat)
                mean, std, value = net.forward_batch(batch)
                z = (actions - mean) / std
                up = float(np.sum(-0.5 * z * z - np.log(std)) + value.sum())
                flat[i] = saved - eps
                net.set_flat(flat)
                mean, std, value = net.forward_batch(batch)
                z = (actions - mean) / std
                dn = float(np.sum(-0.5 * z * z - np.log(std)) + value.sum())
                flat[i] = saved
                fd = (up - dn) / (2 * eps)
                rel = abs(g[j] - fd) / max(1.0, abs(g[j]), abs(fd))
                worst = max(worst, rel)
            offset += arr.size
        net.set_flat(flat)
        assert worst < 1e-4, f"max relative gradient error {worst}"


def full_chain_backward(net, gmean, gstd, gvalue):
    """backward_batch as it ran when every layer ran its full backward,
    input gradients of the first layers included."""
    def tower(t, gtrunk):
        g = t.fc2.backward(t.relu_f2.backward(gtrunk))
        g = t.fc1.backward(t.relu_f1.backward(g))
        ns, nt, ng = t._shapes
        gs, gt, gg = g[:, :ns], g[:, ns:ns + nt], g[:, ns + nt:ns + nt + ng]
        c2 = t.cfg.conv_channels[1]
        t.conv_s1.backward(t.relu_s1.backward(t.conv_s2.backward(
            t.relu_s2.backward(gs.reshape(len(gs), c2, -1)))))
        t.conv_t1.backward(t.relu_t1.backward(t.conv_t2.backward(
            t.relu_t2.backward(gt.reshape(len(gt), c2, -1)))))
        if t._graph_empty:
            t.pool.grads["null"] += gg.sum(axis=0)
        else:
            t.node_mlp.backward(t.node_relu.backward(
                t.attn.backward(t.pool.backward(gg))))

    gpre = gstd * softplus_grad(net._sigma_pre)
    tower(net.actor, net.mean_head.backward(gmean) + net.sigma_head.backward(gpre))
    tower(net.critic, net.value_head.backward(gvalue[:, None]))


class TestFirstLayers:
    @pytest.mark.parametrize("node_counts", [(0, 3, 3, 0), (0, 0)])
    def test_skip_input_gradients_byte_for_byte(self, monkeypatch,
                                                node_counts):
        rng = np.random.default_rng(31)
        batch = batch_obs([obs_of(rng, n_nodes=k) for k in node_counts])
        gmean, gstd = rng.normal(size=(2, len(node_counts), 2))
        gvalue = rng.normal(size=len(node_counts))

        def unread(gy):
            raise AssertionError("computed an input gradient nobody reads")

        grads = []
        for full in (True, False):
            net = ActorCritic(PolicyConfig.reduced(), seed=7)
            net.forward_batch(batch)
            if full:
                full_chain_backward(net, gmean, gstd, gvalue)
            else:
                for t in (net.actor, net.critic):
                    for layer in (t.conv_s1, t.conv_t1, t.node_mlp):
                        monkeypatch.setattr(layer, "backward", unread)
                net.backward_batch(gmean, gstd, gvalue)
            assert np.any(net.critic.conv_s1.grads["w"])
            assert np.any(net.actor.node_mlp.grads["w"]) == any(node_counts)
            grads.append({k: g.tobytes() for k, g in net.named_grads().items()})
        assert grads[0] == grads[1]


def reference_conv_forward(conv, x):
    """CircularConv1d.forward as it gathered before np.take: a fancy index,
    then a transpose copy into the GEMM's (B, L_out, c_in·k) layout."""
    gathered = x[:, :, conv.idx]                       # (B, c_in, L_out, k)
    conv._cols = gathered.transpose(0, 2, 1, 3).reshape(
        x.shape[0], conv.out_length, conv.c_in * conv.kernel)
    wmat = conv.w.reshape(conv.c_out, conv.c_in * conv.kernel)
    return (conv._cols @ wmat.T + conv.b).transpose(0, 2, 1)


def reference_conv_backward(conv, gy):
    """CircularConv1d.backward as it ordered the column gradients before
    np.take: a transpose copy."""
    conv.accumulate(gy)
    b = gy.shape[0]
    gcols = gy.transpose(0, 2, 1) @ conv.w.reshape(conv.c_out, -1)
    gg = gcols.reshape(b, conv.out_length, conv.c_in, conv.kernel)
    gg = gg.transpose(0, 2, 1, 3).reshape(b, conv.c_in,
                                          conv.out_length * conv.kernel)
    return gg @ conv._scatter


def conv_input(rng, layout, b, c, length):
    if layout == "channel_first":
        return rng.normal(size=(b, c, length))
    if layout == "conv_output":                        # a conv's transposed view
        return rng.normal(size=(b, length, c)).transpose(0, 2, 1)
    return rng.normal(size=(b, c + 2, length))[:, 2:, :]   # as z3[:, 2:3, :]


class TestConvIm2col:
    @pytest.mark.parametrize("layout", ["channel_first", "conv_output",
                                        "frame_slice"])
    @pytest.mark.parametrize("b", [1, 8, 512])
    @pytest.mark.parametrize("cfg", [PolicyConfig.reduced(), PolicyConfig()],
                             ids=["reduced", "full"])
    def test_matches_gather_and_transpose_byte_for_byte(self, cfg, b, layout):
        rng = np.random.default_rng(34)
        tower = ActorCritic(cfg, seed=8).actor
        for conv in (tower.conv_s1, tower.conv_s2, tower.conv_t1, tower.conv_t2):
            conv.b[...] = rng.normal(size=conv.b.shape)
            ref = copy.deepcopy(conv)
            x = conv_input(rng, layout, b, conv.c_in, conv.length)
            gy = rng.normal(size=(b, conv.c_out, conv.out_length))
            assert conv.forward(x).tobytes() == reference_conv_forward(ref, x).tobytes()
            assert conv._cols.flags.c_contiguous
            assert conv._cols.tobytes() == ref._cols.tobytes()
            assert (conv.backward(gy).tobytes()
                    == reference_conv_backward(ref, gy).tobytes())
            for k in ("w", "b"):
                assert conv.grads[k].tobytes() == ref.grads[k].tobytes()

    def test_other_layouts_are_copied_first(self):
        rng = np.random.default_rng(35)
        conv = ActorCritic(PolicyConfig.reduced(), seed=8).actor.conv_t2
        ref = copy.deepcopy(conv)
        x = rng.normal(size=(6, conv.c_in, 2 * conv.length))[:, :, ::2]
        assert conv.forward(x).tobytes() == reference_conv_forward(ref, x).tobytes()
        assert conv._cols.tobytes() == ref._cols.tobytes()


class TestReLU:
    def test_matches_where_on_signed_zeros(self):
        rng = np.random.default_rng(36)
        relu = ReLU()
        for n in range(1, 71):
            rows = [np.full(n, -0.0)]
            for p in range(n):
                for zero in (0.0, -0.0):
                    rows.append(rng.normal(size=n))
                    rows[-1][p] = zero
            for vals in rows:
                gappy = np.full(2 * n, np.nan)
                gappy[::2] = vals
                pair = np.stack([vals, -vals], axis=1)
                for x in (vals, gappy[::2], pair.T):   # contiguous, strided, transposed
                    y = relu.forward(x)
                    assert y.flags.c_contiguous
                    assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()
                    assert np.array_equal(relu.backward(np.ones(x.shape)), x > 0)

    @pytest.mark.parametrize("cfg", [PolicyConfig.reduced(), PolicyConfig()],
                             ids=["reduced", "full"])
    def test_backward_grads_match_where_byte_for_byte(self, monkeypatch, cfg):
        rng = np.random.default_rng(37)
        counts = (0, 3, 2, 0, 1, 3)
        batch = batch_obs([obs_of(rng, n_nodes=k) for k in counts])
        gmean, gstd = rng.normal(size=(2, len(counts), 2))
        gvalue = rng.normal(size=len(counts))
        product = ReLU.backward
        signs_differ = []

        def where(self, gy):
            out = np.where(self._mask, gy, 0.0)
            signs_differ.append(np.any(np.signbit(out) != np.signbit(product(self, gy))))
            return out

        grads = []
        for backward in (product, where):
            monkeypatch.setattr(ReLU, "backward", backward)
            net = ActorCritic(cfg, seed=9)
            net.forward_batch(batch)
            net.backward_batch(gmean, gstd, gvalue)
            grads.append({k: g.tobytes() for k, g in net.named_grads().items()})
        assert any(signs_differ)       # the product does make -0.0 somewhere
        assert grads[0] == grads[1]

    def test_nan_activation_raises_divergence(self):
        rng = np.random.default_rng(38)
        batch = batch_obs([obs_of(rng), obs_of(rng)])
        batch.z3[1, 2, 40] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalDivergence):
            ActorCritic(PolicyConfig.reduced(), seed=10).forward_batch(batch)


class TestSampling:
    def test_sigma_zero_limit_returns_clamped_mean(self):
        dist = ActionDistribution(mean=np.array([1.4, -0.2]),
                                  std=np.array([1e-12, 1e-12]))
        raw = gaussian_sample(dist.mean, dist.std, np.random.default_rng(0))
        action = clamp_action(Action(float(raw[0]), float(raw[1])))
        assert action.v == 1.0  # clamped from 1.4
        assert action.w == pytest.approx(-0.2, abs=1e-9)

    def test_log_prob_of_mean_sample(self):
        std = np.array([0.3, 0.7])
        mean = np.array([0.5, 0.0])
        lp = gaussian_log_prob(mean, mean, std)
        expect = -float(np.sum(np.log(std * math.sqrt(2 * math.pi))))
        assert lp == pytest.approx(expect, abs=1e-12)

    def test_sample_statistics(self):
        dist = ActionDistribution(mean=np.array([0.4, -0.1]),
                                  std=np.array([0.25, 0.5]))
        rng = np.random.default_rng(91)
        raws = np.array([gaussian_sample(dist.mean, dist.std, rng)
                         for _ in range(100000)])
        assert np.allclose(raws.mean(axis=0), dist.mean, atol=0.005)
        assert np.allclose(raws.std(axis=0), dist.std, rtol=0.01)

    def test_deterministic_action_is_clamped_mean(self):
        dist = ActionDistribution(mean=np.array([-0.3, 2.0]), std=np.array([1, 1]))
        a = deterministic_action(dist)
        assert (a.v, a.w) == (0.0, 1.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = ActorCritic(PolicyConfig.reduced(), seed=13)
        path = str(tmp_path / "ckpt.json")
        net.save(path)
        back = ActorCritic.load(path)
        for (n1, a), (n2, b) in zip(net.named_params().items(),
                                    back.named_params().items()):
            assert n1 == n2
            assert np.array_equal(a, b)
        assert back.get_flat().size == net.get_flat().size

    def test_flat_round_trip(self):
        net = ActorCritic(TINY, seed=14)
        flat = net.get_flat()
        net.set_flat(np.zeros_like(flat))
        assert np.all(net.get_flat() == 0)
        net.set_flat(flat)
        assert np.array_equal(net.get_flat(), flat)

    def test_rejects_unknown_version(self, tmp_path):
        import json
        net = ActorCritic(TINY, seed=15)
        path = str(tmp_path / "ckpt.json")
        net.save(path)
        with open(path) as f:
            doc = json.load(f)
        doc["version"] = 999
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(ValueError):
            ActorCritic.load(path)

    @staticmethod
    def saved_doc(tmp_path):
        path = tmp_path / "ckpt.json"
        ActorCritic(TINY, seed=16).save(str(path))
        return path, json.loads(path.read_text())

    @staticmethod
    def rejects(path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            ActorCritic.load(str(path))

    def test_rejects_missing_parameter(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        del doc["params"]["critic.value.w"]
        self.rejects(path, doc, r"missing.*critic\.value\.w")

    def test_rejects_unknown_parameter(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["params"]["actor.extra.w"] = doc["params"]["critic.value.w"]
        self.rejects(path, doc, r"unknown.*actor\.extra\.w")

    def test_rejects_shape_mismatch(self, tmp_path):
        # one value would broadcast over all of actor.fc1.b
        path, doc = self.saved_doc(tmp_path)
        doc["params"]["actor.fc1.b"].update(
            shape=[1], data=base64.b64encode(np.ones(1).tobytes()).decode())
        self.rejects(path, doc, r"actor\.fc1\.b.*shape")

    def test_rejects_dtype_mismatch(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        spec = doc["params"]["actor.fc1.b"]
        data = np.ones(spec["shape"], dtype=np.float32)
        spec.update(dtype="float32",
                    data=base64.b64encode(data.tobytes()).decode())
        self.rejects(path, doc, r"actor\.fc1\.b.*dtype")

    def test_rejects_data_of_wrong_length(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        spec = doc["params"]["actor.fc1.b"]
        spec["data"] = base64.b64encode(np.ones(1).tobytes()).decode()
        self.rejects(path, doc, r"actor\.fc1\.b.*values")

    def test_rejects_unknown_config_key(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["config"].update(bogus=1, also_bogus=[2])
        self.rejects(path, doc, r"unknown.*\['also_bogus', 'bogus'\]")
