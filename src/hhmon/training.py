"""Optimization loops: plain SGD with momentum, a cached-feature fast path
for frozen-backbone runs, and the still-image pretrain -> inflate -> head
fine-tune recipe.

When only the head is trainable the backbone output for a fixed clip set
never changes, so features are extracted once and the head trains on the
cache; this is step-for-step identical to running the full network every
batch, just without re-spending the conv time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import layers, model
from .errors import ConfigError, ModelError
from .model import NetSpec, Network


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 10

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i : i + batch_size]


def _batches(items, n: int):
    """Lists of n consecutive items from an iterable; the last may be shorter."""
    it = iter(items)
    while batch := list(islice(it, n)):
        yield batch


def sgd_train(net: Network, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
              seed: int) -> list[float]:
    """Train in place on a materialized batch tensor; returns per-epoch mean loss."""
    if len(x) == 0:
        raise ModelError("training set is empty")
    if len(x) != len(y):
        raise ModelError(f"got {len(x)} samples but {len(y)} labels")
    rng = np.random.default_rng(seed)
    trainable = [n for n in sorted(net.params) if n not in net.frozen]
    velocity = {n: np.zeros_like(net.params[n]) for n in trainable}
    curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in _epoch_batches(len(x), cfg.batch_size, rng):
            logits, caches = net.forward(x[idx], want_cache=True)
            loss, dlogits = layers.bce_with_logits(logits, y[idx])
            grads = net.backward(dlogits, caches)
            for name in trainable:
                g = grads[name]
                v = velocity[name]
                v *= cfg.momentum
                v += g
                net.params[name] -= (cfg.lr * v).astype(net.params[name].dtype, copy=False)
            total += loss * len(idx)
        curve.append(total / len(x))
    return curve


def extract_features(net: Network, clip_iter, batch_size: int = 8):
    """Backbone GAP features for a stream of (clip(C,T,H,W), label) pairs."""
    feats, labels = [], []
    for batch in _batches(clip_iter, batch_size):
        clips, batch_labels = zip(*batch)
        feats.append(net.features(np.stack(clips)))
        labels.extend(batch_labels)
    if not feats:
        raise ModelError("no clips to extract features from")
    return np.concatenate(feats, axis=0), np.asarray(labels, dtype=np.float64)


def train_head_on_features(net: Network, feats: np.ndarray, y: np.ndarray,
                           cfg: TrainConfig, seed: int) -> list[float]:
    """Head-only SGD on cached backbone features; mutates head.w / head.b."""
    bad = [n for n in net.params if not n.startswith("head.") and n not in net.frozen]
    if bad:
        raise ModelError(f"feature-cache training requires a frozen backbone; "
                         f"unfrozen: {', '.join(sorted(bad))}")
    rng = np.random.default_rng(seed)
    w, b = net.params["head.w"], net.params["head.b"]
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in _epoch_batches(len(feats), cfg.batch_size, rng):
            logits, cache = layers.dense_forward(feats[idx], w, b)
            loss, dlogits = layers.bce_with_logits(logits[:, 0], y[idx])
            _, dw, db = layers.dense_backward(dlogits[:, None], cache, w)
            vw *= cfg.momentum
            vw += dw
            vb *= cfg.momentum
            vb += db
            w -= (cfg.lr * vw).astype(w.dtype, copy=False)
            b -= (cfg.lr * vb).astype(b.dtype, copy=False)
            total += loss * len(idx)
        curve.append(total / len(feats))
    return curve


def score_clips(net: Network, clips, batch_size: int = 8) -> np.ndarray:
    """Sigmoid scores for a stream of clips (C, T, H, W)."""
    scores = [net.score(np.stack(batch)) for batch in _batches(clips, batch_size)]
    return np.concatenate(scores) if scores else np.zeros(0)


@dataclass
class TransferResult:
    network: Network
    finetune_curve: list[float]


def pretrain_twin(spec: NetSpec, stills: np.ndarray, labels: np.ndarray,
                  cfg: TrainConfig, seed: int) -> Network:
    """Train the temporally collapsed twin on single-frame classification;
    `seed` draws both its initial weights and its batch order."""
    twin = Network.init(model.collapse_temporal(spec), seed=seed)
    sgd_train(twin, stills, labels, cfg, seed)
    return twin


def _fresh_head(net: Network, head_seed: int) -> Network:
    """Redraw the head from `head_seed` and freeze everything before it."""
    fresh = model.init_params(net.spec, np.random.default_rng(head_seed))
    net.params["head.w"] = fresh["head.w"]
    net.params["head.b"] = fresh["head.b"]
    net.freeze_backbone()
    return net


def inflate_and_freeze(twin: Network, spec: NetSpec, head_seed: int = 1,
                       flow: bool = False) -> Network:
    """Lift twin params onto the 3D spec, freeze the backbone, fresh head."""
    params2d = model.adapt_first_conv_to_flow(twin.params) if flow else twin.params
    return _fresh_head(Network(spec, model.inflate_params(params2d, spec)), head_seed)


def scratch_head_baseline(spec: NetSpec, clip_iter, cfg: TrainConfig, seed: int,
                          head_seed: int = 1) -> TransferResult:
    """Paired control: same head training on a random, never-trained backbone
    drawn from `seed`, which also orders the head's batches."""
    net = _fresh_head(Network.init(spec, seed=seed), head_seed)
    feats, y = extract_features(net, clip_iter, cfg.batch_size)
    curve = train_head_on_features(net, feats, y, cfg, seed)
    return TransferResult(network=net, finetune_curve=curve)
