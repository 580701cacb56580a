"""Network description and execution for the miniature inflated-3D classifier.

A NetSpec is an ordered list of block descriptors (plain conv, max pool,
inception-style mixed block) followed by an implicit global average pool and
a single-logit head.  Parameters live in a flat name -> array dict with a
per-tensor frozen set, which keeps checkpointing and freeze bookkeeping
trivial.

The 2D twin of a spec is the same graph with every temporal extent forced to
1; its trained kernels inflate back into the 3D net by repeating each kernel
kT times along the new time axis and dividing by kT.  So a time-constant clip
reproduces the 2D response under circular temporal padding, which only tests
use; the pipeline pads time with zeros, and the zeros past the clip's ends
change the response there.

The forward pass is the only walk through the blocks.  A training step
(`want_cache=True`) appends, as each layer runs, a backward step
`(dy, grads) -> dx` holding what that layer's backward needs to a list, the
tape, which `backward` runs last to first; a mixed block's step runs its
branches' own tapes and sums their input gradients in branch order.  When
the first block is a convolution, its step returns None for the gradient of
the input batch, which nothing reads.

A forward without a tape (`features`, `score`, `forward` by default) walks
the backbone one clip at a time, so only one clip's activations are live,
and asks the layers for no cache, which lets them bound each
convolution's im2col columns and run an inflated kernel as a temporal box
sum plus one 2D convolution (see `layers`).  Only that box sum changes
float32 results, in the last bits (about 1e-6 relative); a training step
(`want_cache=True`) and the never-inflated scratch backbone run the general
im2col route, and a forward without a tape gives the same bits as a
training forward there.  The clip walk changes no bits.
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
    """Four parallel branches concatenated on channels, laid out by
    `_branches`; the fields are their channel counts and temporal extent."""

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


def min_input_size(spec: NetSpec) -> int:
    """The smallest input side every block of `spec` can take, walked back
    from a one-pixel output: r output pixels need (r - 1) * stride + 1 input
    pixels through a same-padded layer and (r - 1) * stride + kernel through
    a valid pool; a mixed block keeps its side."""
    need = [1, 1]
    for b in reversed(spec.blocks):
        if not isinstance(b, MixedBlock):
            valid = isinstance(b, PoolLayer) and b.padding == "valid"
            need = [(r - 1) * s + (k if valid else 1)
                    for r, k, s in zip(need, b.kernel[1:], (b.stride or b.kernel)[1:])]
    return max(need)


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


def _branches(b: MixedBlock) -> list[list]:
    """The four branches of a mixed block, in concat order: each a chain of
    layers run on the block input, the convolutions at stride 1."""
    one, k3 = (1, 1, 1), (b.kt, 3, 3)
    c = b.in_channels
    return [
        [ConvLayer(f"{b.name}.b0", c, b.b0, one)],
        [ConvLayer(f"{b.name}.b1r", c, b.b1_reduce, one),
         ConvLayer(f"{b.name}.b1", b.b1_reduce, b.b1, k3)],
        [ConvLayer(f"{b.name}.b2r", c, b.b2_reduce, one),
         ConvLayer(f"{b.name}.b2", b.b2_reduce, b.b2, k3)],
        [PoolLayer(f"{b.name}.pool", k3, one, "same"), ConvLayer(f"{b.name}.b3", c, b.b3, one)],
    ]


def conv_param_shapes(spec: NetSpec) -> dict[str, tuple]:
    """Every trainable tensor name with its shape, head included."""
    shapes: dict[str, tuple] = {}
    for b in spec.blocks:
        chain = [x for branch in _branches(b) for x in branch] if isinstance(b, MixedBlock) else [b]
        for c in chain:
            if isinstance(c, ConvLayer):
                shapes[f"{c.name}.w"] = (c.out_channels, c.in_channels, *c.kernel)
                shapes[f"{c.name}.b"] = (c.out_channels,)
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


def adapt_first_conv_to_flow(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Average conv1's input channels and replicate them for the two flow channels."""
    out = {k: v.copy() for k, v in params.items()}
    out["conv1.w"] = np.repeat(out["conv1.w"].mean(axis=1, keepdims=True), 2, axis=1)
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

    def freeze_backbone(self) -> None:
        """Freeze everything up to and including the global average pool."""
        self.frozen = {n for n in self.params if not n.startswith("head.")}

    def _conv(self, x, b: ConvLayer, temporal_pad, tape, want_dx=True):
        """A same-padded convolution and its relu; its backward step returns
        no input gradient unless `want_dx`."""
        y, cache = layers.conv3d_forward(x, self.params[f"{b.name}.w"], self.params[f"{b.name}.b"],
                                         stride=b.stride, padding="same",
                                         temporal_pad=temporal_pad, want_cache=tape is not None)
        mask = y > 0
        if tape is not None:
            def step(dy, grads):
                dx, grads[f"{b.name}.w"], grads[f"{b.name}.b"] = layers.conv3d_backward(
                    dy * mask, cache, want_dx)
                return dx
            tape.append(step)
        return y * mask

    def _pool(self, x, b: PoolLayer, temporal_pad, tape):
        y, cache = layers.maxpool3d_forward(x, b.kernel, b.stride, b.padding, temporal_pad,
                                            want_cache=tape is not None)
        if tape is not None:
            tape.append(lambda dy, grads: layers.maxpool3d_backward(dy, cache))
        return y

    def _mixed(self, x, b: MixedBlock, temporal_pad, tape):
        """The branches on x, concatenated on channels."""
        branches = _branches(b)
        tapes = [None if tape is None else [] for _ in branches]
        outs = [self._walk(br, x, temporal_pad, sub) for br, sub in zip(branches, tapes)]
        if tape is not None:
            sizes = [o.shape[1] for o in outs]

            def step(dy, grads):
                parts = np.split(dy, np.cumsum(sizes)[:-1], axis=1)
                dx = _replay(tapes[0], parts[0], grads)
                for sub, d in zip(tapes[1:], parts[1:]):
                    dx += _replay(sub, d, grads)
                return dx
            tape.append(step)
        return np.concatenate(outs, axis=1)

    def _walk(self, blocks, h, temporal_pad, tape, want_dx=True):
        """Run blocks on h, appending their backward steps to `tape` unless
        None; a conv as the first block skips its input gradient unless
        `want_dx`."""
        for b in blocks:
            if isinstance(b, ConvLayer):
                h = self._conv(h, b, temporal_pad, tape, want_dx)
            elif isinstance(b, PoolLayer):
                h = self._pool(h, b, temporal_pad, tape)
            else:
                h = self._mixed(h, b, temporal_pad, tape)
            want_dx = True
        return h

    def _backbone(self, x: np.ndarray, temporal_pad: str, tape: list | None) -> np.ndarray:
        """Input checks, the block walk and the global average pool: (N, F).
        Without a tape a batch walks one clip at a time, with the same bits."""
        if x.ndim != 5:
            raise ModelError(f"batch must be 5d (N, C, T, H, W), got {x.ndim}d")
        if x.shape[1] != self.spec.in_channels:
            raise ModelError(f"stream expects {self.spec.in_channels} input channels, "
                             f"got {x.shape[1]}")
        if tape is None and len(x) > 1:
            return np.concatenate([self._backbone(c[None], temporal_pad, None) for c in x])
        # nothing reads the gradient of the input batch
        h = self._walk(self.spec.blocks, x, temporal_pad, tape, want_dx=False)
        if tape is not None:
            shape = h.shape

            def step(dy, grads):
                n = shape[2] * shape[3] * shape[4]
                return np.broadcast_to(dy[:, :, None, None, None] / n,
                                       shape).astype(dy.dtype, copy=True)
            tape.append(step)
        return h.mean(axis=(2, 3, 4))

    def forward(self, x: np.ndarray, temporal_pad: str = "zero", want_cache: bool = False):
        """(logits (N,), tape) for a batch (N, C, T, H, W); the tape of
        backward steps is kept only on request, else None."""
        tape: list | None = [] if want_cache else None
        feats = self._backbone(x, temporal_pad, tape)
        if tape is not None:
            def step(dlogits, grads):
                dy = dlogits[:, None]
                grads["head.w"] = feats.T @ dy
                grads["head.b"] = dy.sum(axis=0)
                return dy @ self.params["head.w"].T
            tape.append(step)
        return self.head(feats), tape

    def head(self, feats: np.ndarray) -> np.ndarray:
        """Logits (N,) of pooled features (N, F): a 1x1x1 conv in effect."""
        w = self.params["head.w"]
        if feats.shape[1] != w.shape[0]:
            raise ModelError(f"head expects {w.shape[0]} features, got {feats.shape[1]}")
        return (feats @ w + self.params["head.b"])[:, 0]

    def backward(self, dlogits: np.ndarray, tape: list) -> dict[str, np.ndarray]:
        """Parameter gradients from a training forward's tape; frozen
        tensors are dropped from the result."""
        grads: dict[str, np.ndarray] = {}
        _replay(tape, dlogits, grads)
        return {name: g for name, g in grads.items() if name not in self.frozen}

    def features(self, x: np.ndarray, temporal_pad: str = "zero") -> np.ndarray:
        """Pooled backbone features (N, F) without touching the head."""
        return self._backbone(x, temporal_pad, None)

    def score(self, x: np.ndarray, temporal_pad: str = "zero") -> np.ndarray:
        """Per-sample sigmoid score, strictly inside (0, 1)."""
        logits, _ = self.forward(x, temporal_pad)
        return layers.sigmoid(logits)


def _replay(tape: list, dy: np.ndarray, grads: dict) -> np.ndarray:
    """Run a tape's backward steps last to first; returns the input gradient,
    None when the first step skipped it."""
    for step in reversed(tape):
        dy = step(dy, grads)
    return dy
