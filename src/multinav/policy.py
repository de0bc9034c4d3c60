"""Actor-critic networks for local navigation.

Both networks share one topology: a static LiDAR encoder (Conv1D over the
current frame), a temporal LiDAR encoder (Conv1D over the three-frame
stack), an attentive graph encoder over tracked neighbors, and a fully
connected trunk fed with the encoder outputs plus goal, velocity and path
features. The actor head emits a diagonal Gaussian over (v, w); the critic,
a separate network of identical structure, emits a scalar state value.

Parameters are flat-addressable (stable name -> array registry) and
checkpoints round-trip bit-exactly through base64-wrapped JSON.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .nn import (AttentiveMeanPool, CircularConv1d, Linear,
                 MultiHeadSelfAttention, ReLU, softplus, softplus_grad)
from .observations import NormalizedObs
from .sim import Action, clamp_action

CHECKPOINT_VERSION = 1
LOG_2PI = math.log(2.0 * math.pi)


class NumericalDivergence(RuntimeError):
    pass


@dataclass
class PolicyConfig:
    n_beams: int = 120
    node_features: int = 4
    extras_dim: int = 7
    conv_channels: tuple = (16, 32)
    conv_kernel: int = 5
    conv_stride: int = 2
    node_hidden: int = 32
    attention_heads: int = 2
    attention_head_dim: int = 16
    score_dim: int = 32
    trunk: tuple = (256, 256)
    sigma_floor: float = 1e-3
    init_sigma: float = 0.4

    @classmethod
    def reduced(cls) -> "PolicyConfig":
        """Small variant for gradient checks and desk-scale training."""
        return cls(conv_channels=(4, 8), conv_kernel=3, node_hidden=8,
                   attention_heads=2, attention_head_dim=4, score_dim=8,
                   trunk=(32, 32))

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyConfig":
        """Build from JSON, where the tuple fields arrive as lists."""
        return cls(**{k: tuple(v) if k in ("conv_channels", "trunk") else v
                      for k, v in d.items()})


@dataclass
class BatchedObs:
    z3: np.ndarray                   # (B, 3, 120)
    extras: np.ndarray               # (B, 7)
    nodes: np.ndarray                # (B, N, 4), zero-padded
    mask: np.ndarray                 # (B, N) bool


def batch_obs(obs_list: list[NormalizedObs]) -> BatchedObs:
    b = len(obs_list)
    n = max((len(o.nodes) for o in obs_list), default=0)
    z3 = np.stack([o.z3 for o in obs_list])
    extras = np.stack([o.extras for o in obs_list])
    nodes = np.zeros((b, n, 4))
    mask = np.zeros((b, n), dtype=bool)
    for i, o in enumerate(obs_list):
        k = len(o.nodes)
        if k:
            nodes[i, :k] = o.nodes
            mask[i, :k] = True
    return BatchedObs(z3=z3, extras=extras, nodes=nodes, mask=mask)


class _Tower:
    """Shared encoder + trunk topology used by both actor and critic."""

    def __init__(self, cfg: PolicyConfig, rng: np.random.Generator, name: str):
        c1, c2 = cfg.conv_channels
        k, s, L = cfg.conv_kernel, cfg.conv_stride, cfg.n_beams
        self.cfg = cfg
        self.conv_s1 = CircularConv1d(1, c1, k, s, L, rng, f"{name}.static1")
        self.conv_s2 = CircularConv1d(c1, c2, k, s, self.conv_s1.out_length, rng,
                                      f"{name}.static2")
        self.conv_t1 = CircularConv1d(3, c1, k, s, L, rng, f"{name}.temporal1")
        self.conv_t2 = CircularConv1d(c1, c2, k, s, self.conv_t1.out_length, rng,
                                      f"{name}.temporal2")
        self.relu_s1, self.relu_s2 = ReLU(), ReLU()
        self.relu_t1, self.relu_t2 = ReLU(), ReLU()
        self.node_mlp = Linear(cfg.node_features, cfg.node_hidden, rng,
                               f"{name}.node_mlp")
        self.node_relu = ReLU()
        self.attn = MultiHeadSelfAttention(cfg.node_hidden, cfg.attention_heads,
                                           cfg.attention_head_dim, rng,
                                           f"{name}.attn")
        self.pool = AttentiveMeanPool(cfg.node_hidden, cfg.score_dim, rng,
                                      f"{name}.pool")
        conv_out = c2 * self.conv_s2.out_length
        self.feature_dim = 2 * conv_out + cfg.node_hidden + cfg.extras_dim
        self.fc1 = Linear(self.feature_dim, cfg.trunk[0], rng, f"{name}.fc1")
        self.fc2 = Linear(cfg.trunk[0], cfg.trunk[1], rng, f"{name}.fc2")
        self.relu_f1, self.relu_f2 = ReLU(), ReLU()
        self._shapes = None

    def layers(self):
        return [self.conv_s1, self.conv_s2, self.conv_t1, self.conv_t2,
                self.node_mlp, self.attn, self.pool, self.fc1, self.fc2]

    def encode_static(self, current: np.ndarray) -> np.ndarray:
        h = self.relu_s1.forward(self.conv_s1.forward(current))
        h = self.relu_s2.forward(self.conv_s2.forward(h))
        return h.reshape(h.shape[0], -1)

    def encode_temporal(self, z3: np.ndarray) -> np.ndarray:
        h = self.relu_t1.forward(self.conv_t1.forward(z3))
        h = self.relu_t2.forward(self.conv_t2.forward(h))
        return h.reshape(h.shape[0], -1)

    def encode_graph(self, nodes: np.ndarray, mask: np.ndarray) -> np.ndarray:
        b, n, _ = nodes.shape
        self._graph_empty = n == 0
        if self._graph_empty:
            return np.tile(self.pool.null[None, :], (b, 1))
        h = self.node_relu.forward(self.node_mlp.forward(nodes))
        h = self.attn.forward(h, mask)
        return self.pool.forward(h, mask)

    def forward(self, batch: BatchedObs) -> np.ndarray:
        fs = self.encode_static(batch.z3[:, 2:3, :])
        ft = self.encode_temporal(batch.z3)
        fg = self.encode_graph(batch.nodes, batch.mask)
        feats = np.concatenate([fs, ft, fg, batch.extras], axis=1)
        self._shapes = (fs.shape[1], ft.shape[1], fg.shape[1])
        h = self.relu_f1.forward(self.fc1.forward(feats))
        return self.relu_f2.forward(self.fc2.forward(h))

    def backward(self, gtrunk: np.ndarray) -> None:
        g = self.fc2.backward(self.relu_f2.backward(gtrunk))
        g = self.fc1.backward(self.relu_f1.backward(g))
        ns, nt, ng = self._shapes
        gs, gt, gg = g[:, :ns], g[:, ns:ns + nt], g[:, ns + nt:ns + nt + ng]
        c2 = self.cfg.conv_channels[1]
        gs = gs.reshape(gs.shape[0], c2, -1)
        # the first layers read observations: no input gradient to compute
        self.conv_s1.accumulate(self.relu_s1.backward(
            self.conv_s2.backward(self.relu_s2.backward(gs))))
        gt = gt.reshape(gt.shape[0], c2, -1)
        self.conv_t1.accumulate(self.relu_t1.backward(
            self.conv_t2.backward(self.relu_t2.backward(gt))))
        if self._graph_empty:
            self.pool.grads["null"] += gg.sum(axis=0)
        else:
            gh = self.pool.backward(gg)
            gh = self.attn.backward(gh)
            self.node_mlp.accumulate(self.node_relu.backward(gh))


class ActorCritic:
    """Shared-policy function approximator with flat-addressable parameters."""

    def __init__(self, config: PolicyConfig | None = None, seed: int = 0):
        self.config = config or PolicyConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        self.actor = _Tower(cfg, rng, "actor")
        self.mean_head = Linear(cfg.trunk[1], 2, rng, "actor.mean")
        self.sigma_head = Linear(cfg.trunk[1], 2, rng, "actor.sigma")
        # start exploration at init_sigma: softplus(b) + floor = init_sigma
        self.sigma_head.b[...] = math.log(
            math.expm1(max(cfg.init_sigma - cfg.sigma_floor, 1e-6)))
        self.critic = _Tower(cfg, rng, "critic")
        self.value_head = Linear(cfg.trunk[1], 1, rng, "critic.value")
        self._sigma_pre = None

    # ---- parameter registry -------------------------------------------------

    def _layers(self):
        return (self.actor.layers() + [self.mean_head, self.sigma_head]
                + self.critic.layers() + [self.value_head])

    def named_params(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self._layers():
            for name, arr in layer.named_params():
                out[name] = arr
        return out

    def named_grads(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self._layers():
            for k, g in layer.grads.items():
                out[f"{layer.name}.{k}"] = g
        return out

    def actor_param_names(self) -> list[str]:
        return [n for n in self.named_params() if n.startswith("actor")]

    def critic_param_names(self) -> list[str]:
        return [n for n in self.named_params() if n.startswith("critic")]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self.named_params().values()])

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for v in self.named_params().values():
            v[...] = flat[i:i + v.size].reshape(v.shape)
            i += v.size

    def zero_grad(self) -> None:
        for layer in self._layers():
            layer.zero_grad()

    # ---- forward / backward -------------------------------------------------

    def policy_batch(self, batch: BatchedObs):
        """Acting: (mean (B,2), std (B,2)) from the actor alone."""
        ta = self.actor.forward(batch)
        mean = self.mean_head.forward(ta)
        self._sigma_pre = self.sigma_head.forward(ta)
        std = softplus(self._sigma_pre) + self.config.sigma_floor
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericalDivergence("non-finite actor output")
        return mean, std

    def value_batch(self, batch: BatchedObs):
        """State values (B,) from the critic alone."""
        value = self.value_head.forward(self.critic.forward(batch))[:, 0]
        if not np.isfinite(value).all():
            raise NumericalDivergence("non-finite critic output")
        return value

    def forward_batch(self, batch: BatchedObs):
        """Learning: (mean, std, value (B,)), cached for backward_batch."""
        mean, std = self.policy_batch(batch)
        return mean, std, self.value_batch(batch)

    def backward_batch(self, gmean: np.ndarray, gstd: np.ndarray,
                       gvalue: np.ndarray) -> None:
        gpre = gstd * softplus_grad(self._sigma_pre)
        gt = self.mean_head.backward(gmean) + self.sigma_head.backward(gpre)
        self.actor.backward(gt)
        gv = self.value_head.backward(gvalue[:, None])
        self.critic.backward(gv)

    def forward_one(self, obs: NormalizedObs):
        """Single-observation convenience: (ActionDistribution, value)."""
        mean, std, value = self.forward_batch(batch_obs([obs]))
        return ActionDistribution(mean=mean[0], std=std[0]), float(value[0])

    # ---- checkpointing ------------------------------------------------------

    def save(self, path: str) -> None:
        doc = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "params": {
                name: {
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                    "data": base64.b64encode(arr.tobytes()).decode("ascii"),
                } for name, arr in self.named_params().items()
            },
        }
        with open(path, "w") as f:
            json.dump(doc, f)

    @classmethod
    def load(cls, path: str) -> "ActorCritic":
        with open(path) as f:
            doc = json.load(f)
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
        net = cls(PolicyConfig.from_dict(doc["config"]), seed=0)
        params = net.named_params()
        missing = sorted(params.keys() - doc["params"].keys())
        unknown = sorted(doc["params"].keys() - params.keys())
        if missing or unknown:
            raise ValueError(f"checkpoint parameters: missing {missing}, "
                             f"unknown {unknown}")
        for name, spec in doc["params"].items():
            param = params[name]
            if spec["dtype"] != str(param.dtype):
                raise ValueError(f"checkpoint parameter {name}: dtype "
                                 f"{spec['dtype']}, expected {param.dtype}")
            if tuple(spec["shape"]) != param.shape:
                raise ValueError(f"checkpoint parameter {name}: shape "
                                 f"{spec['shape']}, expected {list(param.shape)}")
            data = np.frombuffer(base64.b64decode(spec["data"]), dtype=param.dtype)
            if data.size != param.size:
                raise ValueError(f"checkpoint parameter {name}: {data.size} "
                                 f"values, shape needs {param.size}")
            param[...] = data.reshape(param.shape)
        return net


@dataclass
class ActionDistribution:
    mean: np.ndarray                 # (mu_v, mu_w)
    std: np.ndarray                  # (sigma_v, sigma_w), strictly positive


def gaussian_log_prob(x: np.ndarray, mean: np.ndarray, std: np.ndarray):
    """Log-density of x under independent Normals, summed over the last
    axis: a scalar for one (v, w) row, one value per row for a batch."""
    z = (x - mean) / std
    return np.sum(-0.5 * z * z - np.log(std) - 0.5 * LOG_2PI, axis=-1)


def gaussian_sample(mean: np.ndarray, std: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One draw per row. A (k, 2) draw takes the same numbers from rng as
    k draws of one row, in row order."""
    return mean + std * rng.standard_normal(np.shape(mean))


def deterministic_action(dist: ActionDistribution) -> Action:
    return clamp_action(Action(float(dist.mean[0]), float(dist.mean[1])))
