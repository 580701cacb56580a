"""Network description and execution for the miniature inflated-3D classifier.

A NetSpec is an ordered list of block descriptors (plain conv, max pool,
inception-style mixed block) followed by an implicit global average pool and
a single-logit head.  Parameters live in a flat name -> array dict with a
per-tensor frozen set, which keeps checkpointing and freeze bookkeeping
trivial.

The 2D twin of a spec is the same graph with every temporal extent forced to
1; its trained kernels inflate back into the 3D net by repeating each kernel
kT times along the new time axis and dividing by kT, so a time-constant clip
reproduces the 2D response.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import layers
from .errors import ModelError


@dataclass
class ConvLayer:
    name: str
    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)


@dataclass
class PoolLayer:
    name: str
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] | None = None  # None: stride = kernel
    padding: str = "valid"


@dataclass
class MixedBlock:
    """Four parallel branches concatenated on channels.

    b0: 1x1x1; b1_reduce -> b1 (kt x3x3); b2_reduce -> b2 (kt x3x3);
    3x3x3 stride-1 max pool -> b3 (1x1x1).
    """

    name: str
    in_channels: int
    b0: int
    b1_reduce: int
    b1: int
    b2_reduce: int
    b2: int
    b3: int
    kt: int = 3

    @property
    def out_channels(self) -> int:
        return self.b0 + self.b1 + self.b2 + self.b3


@dataclass
class NetSpec:
    in_channels: int = 3
    clip_len: int = 16
    input_size: int = 56
    blocks: list = field(default_factory=list)

    @property
    def head_features(self) -> int:
        c = self.in_channels
        for b in self.blocks:
            if isinstance(b, (ConvLayer, MixedBlock)):
                c = b.out_channels
        return c

    def to_json(self) -> dict:
        out = {"in_channels": self.in_channels, "clip_len": self.clip_len,
               "input_size": self.input_size, "blocks": []}
        for b in self.blocks:
            d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(b).items()}
            d["kind"] = type(b).__name__
            out["blocks"].append(d)
        return out

    @classmethod
    def from_json(cls, d: dict) -> "NetSpec":
        kinds = {"ConvLayer": ConvLayer, "PoolLayer": PoolLayer, "MixedBlock": MixedBlock}
        blocks = []
        for bd in d["blocks"]:
            bd = dict(bd)
            kind = bd.pop("kind")
            if kind not in kinds:
                raise ModelError(f"unknown block kind {kind!r} in net config")
            for k, v in bd.items():
                if isinstance(v, list):
                    bd[k] = tuple(v)
            blocks.append(kinds[kind](**bd))
        return cls(in_channels=d["in_channels"], clip_len=d["clip_len"],
                   input_size=d["input_size"], blocks=blocks)


def i3d_mini(in_channels: int = 3, input_size: int = 56, clip_len: int = 16) -> NetSpec:
    """Default desk-scale topology: 56 -> 28 -> 14 -> 7 spatially, 16 -> 8 in time."""
    blocks = [
        ConvLayer("conv1", in_channels, 8, (3, 5, 5), (1, 2, 2)),
        PoolLayer("pool1", (1, 2, 2)),
        MixedBlock("mixed1", 8, b0=8, b1_reduce=4, b1=8, b2_reduce=2, b2=4, b3=4),
        PoolLayer("pool2", (2, 2, 2)),
        MixedBlock("mixed2", 24, b0=10, b1_reduce=6, b1=12, b2_reduce=3, b2=6, b3=4),
    ]
    return NetSpec(in_channels=in_channels, clip_len=clip_len,
                   input_size=input_size, blocks=blocks)


def collapse_temporal(spec: NetSpec) -> NetSpec:
    """The 2D twin: identical graph with every temporal extent forced to 1."""
    blocks = []
    for b in spec.blocks:
        if isinstance(b, ConvLayer):
            blocks.append(replace(b, kernel=(1, *b.kernel[1:]), stride=(1, *b.stride[1:])))
        elif isinstance(b, PoolLayer):
            stride = None if b.stride is None else (1, *b.stride[1:])
            blocks.append(replace(b, kernel=(1, *b.kernel[1:]), stride=stride))
        else:
            blocks.append(replace(b, kt=1))
    return NetSpec(in_channels=spec.in_channels, clip_len=1,
                   input_size=spec.input_size, blocks=blocks)


def _mixed_convs(b: MixedBlock) -> list[tuple[str, int, int, tuple[int, int, int]]]:
    one = (1, 1, 1)
    k3 = (b.kt, 3, 3)
    return [
        (f"{b.name}.b0", b.in_channels, b.b0, one),
        (f"{b.name}.b1r", b.in_channels, b.b1_reduce, one),
        (f"{b.name}.b1", b.b1_reduce, b.b1, k3),
        (f"{b.name}.b2r", b.in_channels, b.b2_reduce, one),
        (f"{b.name}.b2", b.b2_reduce, b.b2, k3),
        (f"{b.name}.b3", b.in_channels, b.b3, one),
    ]


def conv_param_shapes(spec: NetSpec) -> dict[str, tuple]:
    """Every trainable tensor name with its shape, head included."""
    shapes: dict[str, tuple] = {}
    for b in spec.blocks:
        if isinstance(b, ConvLayer):
            shapes[f"{b.name}.w"] = (b.out_channels, b.in_channels, *b.kernel)
            shapes[f"{b.name}.b"] = (b.out_channels,)
        elif isinstance(b, MixedBlock):
            for name, cin, cout, k in _mixed_convs(b):
                shapes[f"{name}.w"] = (cout, cin, *k)
                shapes[f"{name}.b"] = (cout,)
    shapes["head.w"] = (spec.head_features, 1)
    shapes["head.b"] = (1,)
    return shapes


def init_params(spec: NetSpec, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """He-normal weights, zero biases."""
    params = {}
    for name, shape in conv_param_shapes(spec).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 5 else shape[0]
            std = np.sqrt(2.0 / fan_in)
            params[name] = (rng.standard_normal(shape) * std).astype(dtype)
    return params


def inflate_2d_to_3d(kernel2d: np.ndarray, kt: int) -> np.ndarray:
    """Repeat a (Cout, Cin, kH, kW) kernel kt times along time, divided by kt."""
    if kt < 1:
        raise ModelError(f"temporal extent must be >= 1, got {kt}")
    if kernel2d.ndim != 4:
        raise ModelError(f"inflation expects a 4d kernel, got {kernel2d.ndim}d")
    return np.repeat(kernel2d[:, :, None] / kt, kt, axis=2)


def inflate_params(params2d: dict[str, np.ndarray], spec3d: NetSpec) -> dict[str, np.ndarray]:
    """Lift a 2D twin's parameter set onto the 3D spec's shapes."""
    shapes = conv_param_shapes(spec3d)
    out = {}
    for name, shape in shapes.items():
        src = params2d[name]
        if len(shape) == 5:
            if src.shape[2] != 1:
                raise ModelError(f"{name}: twin kernel should have a singleton time axis")
            out[name] = inflate_2d_to_3d(src[:, :, 0], shape[2])
        else:
            out[name] = src.copy()
        if out[name].shape != shape:
            raise ModelError(f"{name}: inflated shape {out[name].shape} != expected {shape}")
    return out


def adapt_first_conv_to_flow(params: dict[str, np.ndarray], first_conv: str = "conv1",
                             n_channels: int = 2) -> dict[str, np.ndarray]:
    """Average the first conv's input channels and replicate for flow input."""
    out = {k: v.copy() for k, v in params.items()}
    w = out[f"{first_conv}.w"]
    out[f"{first_conv}.w"] = np.repeat(w.mean(axis=1, keepdims=True), n_channels, axis=1)
    return out


class Network:
    """Executable pairing of a NetSpec with its parameters."""

    def __init__(self, spec: NetSpec, params: dict[str, np.ndarray],
                 frozen: set[str] | None = None):
        self.spec = spec
        self.params = params
        self.frozen = set(frozen or ())
        shapes = conv_param_shapes(spec)
        missing = sorted(set(shapes) - set(params))
        if missing:
            raise ModelError(f"missing parameters: {', '.join(missing)}")
        for name, shape in shapes.items():
            if tuple(params[name].shape) != shape:
                raise ModelError(f"{name}: shape {params[name].shape} != spec shape {shape}")
        unknown = sorted(self.frozen - set(shapes))
        if unknown:
            raise ModelError(f"frozen names not in the parameter set: {', '.join(unknown)}")

    @classmethod
    def init(cls, spec: NetSpec, seed: int = 0, dtype=np.float32) -> "Network":
        return cls(spec, init_params(spec, np.random.default_rng(seed), dtype))

    def cast(self, dtype) -> "Network":
        return Network(self.spec, {k: v.astype(dtype) for k, v in self.params.items()},
                       set(self.frozen))

    def freeze_backbone(self) -> None:
        """Freeze everything up to and including the global average pool."""
        self.frozen = {n for n in self.params if not n.startswith("head.")}

    def _conv(self, x, name, stride, temporal_pad, caches):
        y, c = layers.conv3d_forward(x, self.params[f"{name}.w"], self.params[f"{name}.b"],
                                     stride=stride, padding="same", temporal_pad=temporal_pad)
        y, mask = layers.relu_forward(y)
        if caches is not None:
            caches[f"{name}.conv"] = c
            caches[f"{name}.relu"] = mask
        return y

    def _backbone(self, x: np.ndarray, temporal_pad: str, caches: dict | None) -> np.ndarray:
        """Input checks, the block walk and the global average pool: (N, F)."""
        if x.ndim != 5:
            raise ModelError(f"batch must be 5d (N, C, T, H, W), got {x.ndim}d")
        if x.shape[1] != self.spec.in_channels:
            raise ModelError(f"stream expects {self.spec.in_channels} input channels, "
                             f"got {x.shape[1]}")
        h = x
        for b in self.spec.blocks:
            if isinstance(b, ConvLayer):
                h = self._conv(h, b.name, b.stride, temporal_pad, caches)
            elif isinstance(b, PoolLayer):
                h, c = layers.maxpool3d_forward(h, b.kernel, b.stride, b.padding, temporal_pad)
                if caches is not None:
                    caches[b.name] = c
            else:
                h = self._mixed_forward(h, b, temporal_pad, caches)
        feats, gap_shape = layers.global_avg_pool_forward(h)
        if caches is not None:
            caches["gap"] = gap_shape
        return feats

    def forward(self, x: np.ndarray, temporal_pad: str = "zero", want_cache: bool = False):
        """Logits (N,) for a batch (N, C, T, H, W); cache kept only on request."""
        caches: dict | None = {} if want_cache else None
        feats = self._backbone(x, temporal_pad, caches)
        logits, dense_cache = layers.dense_forward(feats, self.params["head.w"],
                                                   self.params["head.b"])
        if caches is not None:
            caches["head"] = dense_cache
        return logits[:, 0], caches

    def _mixed_forward(self, x, b: MixedBlock, temporal_pad, caches):
        one = (1, 1, 1)
        t0 = self._conv(x, f"{b.name}.b0", one, temporal_pad, caches)
        t1 = self._conv(x, f"{b.name}.b1r", one, temporal_pad, caches)
        t1 = self._conv(t1, f"{b.name}.b1", one, temporal_pad, caches)
        t2 = self._conv(x, f"{b.name}.b2r", one, temporal_pad, caches)
        t2 = self._conv(t2, f"{b.name}.b2", one, temporal_pad, caches)
        pooled, pc = layers.maxpool3d_forward(x, (b.kt, 3, 3), (1, 1, 1), "same", temporal_pad)
        t3 = self._conv(pooled, f"{b.name}.b3", one, temporal_pad, caches)
        y, sizes = layers.concat_forward([t0, t1, t2, t3])
        if caches is not None:
            caches[f"{b.name}.pool"] = pc
            caches[f"{b.name}.concat"] = sizes
        return y

    def _conv_backward(self, dy, name, caches, grads):
        dy = layers.relu_backward(dy, caches[f"{name}.relu"])
        dx, dk, db = layers.conv3d_backward(dy, caches[f"{name}.conv"])
        grads[f"{name}.w"] = dk
        grads[f"{name}.b"] = db
        return dx

    def backward(self, dlogits: np.ndarray, caches: dict) -> dict[str, np.ndarray]:
        """Parameter gradients; frozen tensors are dropped from the result."""
        grads: dict[str, np.ndarray] = {}
        dy = dlogits[:, None]
        dfeats, dw, db = layers.dense_backward(dy, caches["head"], self.params["head.w"])
        grads["head.w"] = dw
        grads["head.b"] = db
        dh = layers.global_avg_pool_backward(dfeats, caches["gap"])
        for b in reversed(self.spec.blocks):
            if isinstance(b, ConvLayer):
                dh = self._conv_backward(dh, b.name, caches, grads)
            elif isinstance(b, PoolLayer):
                dh = layers.maxpool3d_backward(dh, caches[b.name])
            else:
                dh = self._mixed_backward(dh, b, caches, grads)
        for name in self.frozen:
            grads.pop(name, None)
        return grads

    def _mixed_backward(self, dy, b: MixedBlock, caches, grads):
        d0, d1, d2, d3 = layers.concat_backward(dy, caches[f"{b.name}.concat"])
        dx = self._conv_backward(d0, f"{b.name}.b0", caches, grads)
        d1 = self._conv_backward(d1, f"{b.name}.b1", caches, grads)
        dx += self._conv_backward(d1, f"{b.name}.b1r", caches, grads)
        d2 = self._conv_backward(d2, f"{b.name}.b2", caches, grads)
        dx += self._conv_backward(d2, f"{b.name}.b2r", caches, grads)
        d3 = self._conv_backward(d3, f"{b.name}.b3", caches, grads)
        dx += layers.maxpool3d_backward(d3, caches[f"{b.name}.pool"])
        return dx

    def features(self, x: np.ndarray, temporal_pad: str = "zero") -> np.ndarray:
        """Pooled backbone features (N, F) without touching the head."""
        return self._backbone(x, temporal_pad, None)

    def score(self, x: np.ndarray, temporal_pad: str = "zero") -> np.ndarray:
        """Per-sample sigmoid score, strictly inside (0, 1)."""
        logits, _ = self.forward(x, temporal_pad)
        return layers.sigmoid(logits)

