"""One optimization loop, plain SGD with momentum (`sgd_train`), a
cached-feature fast path for frozen-backbone runs, and the still-image
pretrain -> inflate -> head fine-tune recipe.

When only the head is trainable the backbone output for a fixed clip set
never changes, so features are extracted once and the head trains on the
cache: `sgd_train` runs on a head-only net whose input is the features, as
(N, F, 1, 1, 1) clips.  This is step-for-step identical to running the full
network every batch, just without re-spending the conv time.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        order = rng.permutation(len(x))
        for i in range(0, len(x), cfg.batch_size):
            idx = order[i : i + cfg.batch_size]
            logits, tape = net.forward(x[idx], want_cache=True)
            loss, dlogits = layers.bce_with_logits(logits, y[idx])
            grads = net.backward(dlogits, tape)
            for name in trainable:
                g = grads[name]
                v = velocity[name]
                v *= cfg.momentum
                v += g
                net.params[name] -= (cfg.lr * v).astype(net.params[name].dtype, copy=False)
            total += loss * len(idx)
        curve.append(total / len(x))
    return curve


def extract_features(nets: list[Network], clip_iter):
    """Backbone GAP features of every net for one pass over a stream of
    (clip(C,T,H,W), label) pairs: ([(N, F) per net], labels (N,)).  Each
    clip is sampled once and fed to all the nets as a one-clip batch, so
    only one clip and its activations are live at a time."""
    feats: list[list[np.ndarray]] = [[] for _ in nets]
    labels = []
    for clip, label in clip_iter:
        for out, net in zip(feats, nets):
            out.append(net.features(clip[None]))
        labels.append(label)
    if not labels:
        raise ModelError("no clips to extract features from")
    return ([np.concatenate(f, axis=0) for f in feats],
            np.asarray(labels, dtype=np.float64))


def train_head_on_features(net: Network, feats: np.ndarray, y: np.ndarray,
                           cfg: TrainConfig, seed: int) -> list[float]:
    """Head-only SGD on cached backbone features (N, F): `sgd_train` on a
    net with no blocks that shares `net`'s head arrays, so it updates
    head.w and head.b in place."""
    bad = [n for n in net.params if not n.startswith("head.") and n not in net.frozen]
    if bad:
        raise ModelError(f"feature-cache training requires a frozen backbone; "
                         f"unfrozen: {', '.join(sorted(bad))}")
    head = Network(NetSpec(in_channels=feats.shape[1]),
                   {name: net.params[name] for name in ("head.w", "head.b")})
    return sgd_train(head, feats[:, :, None, None, None], y, cfg, seed)


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


def scratch_network(spec: NetSpec, seed: int, head_seed: int = 1) -> Network:
    """Paired control: a random, never-trained backbone drawn from `seed`,
    frozen under a fresh head drawn from `head_seed`."""
    return _fresh_head(Network.init(spec, seed=seed), head_seed)
