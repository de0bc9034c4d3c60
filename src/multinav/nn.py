"""Minimal numpy neural-network layers with explicit backward passes.

Everything runs in float64 by default. Layers cache what the matching
backward needs; the call pattern is forward -> backward -> update, with
accumulate (backward without the input gradient) for a layer whose input
gradient nobody reads. Parameter arrays are owned by the layers and
mutated in place by the optimizer, which keeps flat-vector addressing stable.
"""

from __future__ import annotations

import math

import numpy as np


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class Layer:
    """Base: subclasses fill self.params/self.grads with parallel arrays."""

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add_param(self, key: str, value: np.ndarray) -> np.ndarray:
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)
        return value

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{self.name}.{k}", v) for k, v in self.params.items()]


class Linear(Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str):
        super().__init__(name)
        self.w = self.add_param("w", glorot_uniform(rng, (n_out, n_in), n_in, n_out))
        self.b = self.add_param("b", np.zeros(n_out))
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w.T + self.b

    def accumulate(self, gy: np.ndarray) -> None:
        flat_g = gy.reshape(-1, gy.shape[-1])
        self.grads["w"] += flat_g.T @ self._x.reshape(-1, self._x.shape[-1])
        self.grads["b"] += flat_g.sum(axis=0)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.accumulate(gy)
        return gy @ self.w


class ReLU:
    """max(x, 0), written in C order whatever the layout of x, so a conv's
    transposed output comes out channel-first and flattens as a view.
    np.maximum returns +0.0 for x = -0.0, so a finite x gives the bytes of
    np.where(x > 0, x, 0.0); a NaN passes through. The backward multiplies
    by the kept mask. That can flip only the sign of a masked zero, which
    the += into each +0.0-initialised grads buffer erases."""

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.maximum(x, 0.0, order="C")
        self._mask = y > 0.0
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy * self._mask


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of scores, taken over the entries where
    mask (broadcast against scores) is True. A masked entry is exp(-inf),
    +0.0, and a row with no kept entry divides those zeros by 1."""
    scores = np.where(mask, scores, -np.inf)
    smax = np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores - np.where(np.isfinite(smax), smax, 0.0))
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom > 0.0, denom, 1.0)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class CircularConv1d(Layer):
    """1-D convolution over the beam axis with circular padding.

    Input (B, c_in, L), output (B, c_out, ceil(L / stride)). The im2col
    gather is one np.take from the input as (B, c_in·L) rows, through
    offsets precomputed at construction; it writes the (B, L_out, c_in·k)
    columns of the GEMM directly. The rows are a view of a channel-first
    input and of a single-channel slice such as the current frame of z3;
    any other layout is copied into them. The backward takes the column
    gradients into (B, c_in, L_out·k) order the same way, and its scatter
    is a precomputed 0/1 matrix so the whole pass stays in BLAS.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 length: int, rng: np.random.Generator, name: str):
        super().__init__(name)
        self.c_in, self.c_out, self.kernel, self.stride = c_in, c_out, kernel, stride
        self.length = length
        self.out_length = (length + stride - 1) // stride
        pad = (kernel - 1) // 2
        l = np.arange(self.out_length) * stride
        self.idx = (l[:, None] + np.arange(kernel)[None, :] - pad) % length
        # cols[b, l, c·k + j] = x[b, c, idx[l, j]], at these offsets in a
        # (c_in·L) row of x
        ch, tap = np.arange(c_in)[None, :, None], self.idx[:, None, :]
        self._col_offsets = (ch * length + tap).reshape(self.out_length, -1)
        # the backward's (L_out, c_in, k) column gradients, read in the
        # scatter's (c_in, L_out·k) order
        self._gcol_offsets = (
            np.arange(self.out_length * c_in * kernel)
            .reshape(self.out_length, c_in, kernel).transpose(1, 0, 2)
            .reshape(c_in, -1))
        scatter = np.zeros((self.out_length * kernel, length))
        scatter[np.arange(self.idx.size), self.idx.ravel()] = 1.0
        self._scatter = scatter
        fan_in, fan_out = c_in * kernel, c_out * kernel
        self.w = self.add_param("w", glorot_uniform(rng, (c_out, c_in, kernel),
                                                    fan_in, fan_out))
        self.b = self.add_param("b", np.zeros(c_out))
        self._cols = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols = np.take(x.reshape(x.shape[0], -1), self._col_offsets,
                       axis=1)                             # (B, L_out, c_in·k)
        self._cols = cols
        wmat = self.w.reshape(self.c_out, self.c_in * self.kernel)
        y = cols @ wmat.T + self.b                         # (B, L_out, c_out)
        return y.transpose(0, 2, 1)

    def accumulate(self, gy: np.ndarray) -> None:
        g = gy.transpose(0, 2, 1)                          # (B, L_out, c_out)
        cols = self._cols.reshape(-1, self.c_in * self.kernel)
        self.grads["w"] += (g.reshape(-1, self.c_out).T @ cols).reshape(self.w.shape)
        self.grads["b"] += g.sum(axis=(0, 1))

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.accumulate(gy)
        b = gy.shape[0]
        gcols = gy.transpose(0, 2, 1) @ self.w.reshape(self.c_out, -1)
        gg = np.take(gcols.reshape(b, -1), self._gcol_offsets, axis=1)
        return gg @ self._scatter                          # (B, c_in, L)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product self-attention over variable-size node sets.

    mask (B, N) marks real nodes; masked keys get zero attention and masked
    query rows produce zero output (and receive no gradient).
    """

    def __init__(self, d_model: int, n_heads: int, d_head: int,
                 rng: np.random.Generator, name: str):
        super().__init__(name)
        self.n_heads, self.d_head = n_heads, d_head
        d_inner = n_heads * d_head
        self.wq = self.add_param("wq", glorot_uniform(rng, (d_model, d_inner), d_model, d_inner))
        self.wk = self.add_param("wk", glorot_uniform(rng, (d_model, d_inner), d_model, d_inner))
        self.wv = self.add_param("wv", glorot_uniform(rng, (d_model, d_inner), d_model, d_inner))
        self.wo = self.add_param("wo", glorot_uniform(rng, (d_inner, d_model), d_inner, d_model))
        self.bo = self.add_param("bo", np.zeros(d_model))
        self._cache = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, n, _ = x.shape
        return x.reshape(b, n, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(self, h: np.ndarray, mask: np.ndarray) -> np.ndarray:
        b, n, _ = h.shape
        q = self._split(h @ self.wq)                       # (B, H, N, Dh)
        k = self._split(h @ self.wk)
        v = self._split(h @ self.wv)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.d_head)
        att = masked_softmax(scores, mask[:, None, None, :])  # (B, H, N, N)
        ctx = att @ v                                      # (B, H, N, Dh)
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, n, -1)
        out = (merged @ self.wo + self.bo) * mask[:, :, None]
        self._cache = (h, q, k, v, att, merged, mask)
        return out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        h, q, k, v, att, merged, mask = self._cache
        b, n, _ = h.shape
        gy = gy * mask[:, :, None]
        self.grads["wo"] += merged.reshape(-1, merged.shape[-1]).T @ gy.reshape(-1, gy.shape[-1])
        self.grads["bo"] += gy.reshape(-1, gy.shape[-1]).sum(axis=0)
        gmerged = gy @ self.wo.T
        gctx = gmerged.reshape(b, n, self.n_heads, self.d_head).transpose(0, 2, 1, 3)
        gatt = gctx @ v.transpose(0, 1, 3, 2)
        gv = att.transpose(0, 1, 3, 2) @ gctx
        gscores = att * (gatt - (gatt * att).sum(axis=-1, keepdims=True))
        gscores = gscores / math.sqrt(self.d_head)
        gq = gscores @ k
        gk = gscores.transpose(0, 1, 3, 2) @ q

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(b, n, -1)

        gq, gk, gv = merge(gq), merge(gk), merge(gv)
        hf = h.reshape(-1, h.shape[-1])
        self.grads["wq"] += hf.T @ gq.reshape(-1, gq.shape[-1])
        self.grads["wk"] += hf.T @ gk.reshape(-1, gk.shape[-1])
        self.grads["wv"] += hf.T @ gv.reshape(-1, gv.shape[-1])
        return gq @ self.wq.T + gk @ self.wk.T + gv @ self.wv.T


class AttentiveMeanPool(Layer):
    """Pooled graph embedding: softmax-weighted sum under a learned score,
    averaged with plain mean pooling. Empty graphs return a learned null
    embedding."""

    def __init__(self, d_model: int, d_score: int, rng: np.random.Generator, name: str):
        super().__init__(name)
        self.w1 = self.add_param("w1", glorot_uniform(rng, (d_score, d_model), d_model, d_score))
        self.b1 = self.add_param("b1", np.zeros(d_score))
        self.w2 = self.add_param("w2", glorot_uniform(rng, (d_score,), d_score, 1))
        self.null = self.add_param("null", rng.uniform(-0.1, 0.1, size=d_model))
        self._cache = None

    def forward(self, h: np.ndarray, mask: np.ndarray) -> np.ndarray:
        pre = h @ self.w1.T + self.b1                      # (B, N, d_score)
        act = np.tanh(pre)
        alpha = masked_softmax(act @ self.w2, mask)        # (B, N)
        counts = mask.sum(axis=1)
        nonempty = counts > 0
        pooled_att = (alpha[:, :, None] * h).sum(axis=1)
        safe_counts = np.where(nonempty, counts, 1.0)
        pooled_mean = (h * mask[:, :, None]).sum(axis=1) / safe_counts[:, None]
        pooled = 0.5 * (pooled_att + pooled_mean)
        out = np.where(nonempty[:, None], pooled, self.null[None, :])
        self._cache = (h, mask, act, alpha, nonempty, safe_counts)
        return out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        h, mask, act, alpha, nonempty, safe_counts = self._cache
        self.grads["null"] += gy[~nonempty].sum(axis=0)
        g = np.where(nonempty[:, None], gy, 0.0) * 0.5
        # mean-pool branch
        gh = (g / safe_counts[:, None])[:, None, :] * mask[:, :, None]
        # attentive branch: d(sum alpha_i h_i)
        gh = gh + alpha[:, :, None] * g[:, None, :]
        galpha = (g[:, None, :] * h).sum(axis=2)           # (B, N)
        gscore = alpha * (galpha - (galpha * alpha).sum(axis=1, keepdims=True))
        gact = gscore[:, :, None] * self.w2[None, None, :]
        self.grads["w2"] += (act * gscore[:, :, None]).sum(axis=(0, 1))
        gpre = gact * (1.0 - act ** 2)
        flat_g = gpre.reshape(-1, gpre.shape[-1])
        self.grads["w1"] += flat_g.T @ h.reshape(-1, h.shape[-1])
        self.grads["b1"] += flat_g.sum(axis=0)
        return gh + gpre @ self.w1


ADAM_BETA1 = 0.9                # first-moment decay
ADAM_BETA2 = 0.999              # second-moment decay
ADAM_EPS = 1e-8                 # added to the second-moment root


class Adam:
    """Adaptive-moment optimizer over a named parameter dict, in-place,
    with Kingma & Ba's default moments."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if self.lr == 0.0:
            return
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            p -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale
    return total
