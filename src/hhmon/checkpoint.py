"""Binary parameter checkpoints plus a JSON sidecar for the net layout.

Layout: magic "SWNET", u32 version, u32 tensor count, then per tensor
{u32 name length, name bytes, u8 frozen, u8 rank, u32 dims..., f32 data}.
Everything little-endian; tensors are written sorted by name so identical
parameter sets produce identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import artifacts
from .errors import ModelError
from .model import NetSpec, Network

MAGIC = b"SWNET"
VERSION = 1


def save_params(path: str, params: dict[str, np.ndarray],
                frozen: set[str] | None = None) -> None:
    frozen = frozen or set()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", 1 if name in frozen else 0, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ModelError(f"{self.path}: truncated checkpoint")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_params(path: str) -> tuple[dict[str, np.ndarray], set[str]]:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ModelError(f"{path}: bad checkpoint magic")
    version, count = r.unpack("<II")
    if version != VERSION:
        raise ModelError(f"{path}: checkpoint version {version}, expected {VERSION}")
    params: dict[str, np.ndarray] = {}
    frozen: set[str] = set()
    for _ in range(count):
        (name_len,) = r.unpack("<I")
        name = r.take(name_len).decode("utf-8")
        flag, rank = r.unpack("<BB")
        dims = r.unpack(f"<{rank}I") if rank else ()
        n = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(dims).astype(np.float32)
        params[name] = arr
        if flag:
            frozen.add(name)
    if r.off != len(r.data):
        raise ModelError(f"{path}: {len(r.data) - r.off} trailing bytes after last tensor")
    return params, frozen


def _spec_path(ckpt_path: str) -> str:
    return ckpt_path + ".spec.json"


def save_network(net: Network, path: str) -> None:
    """Checkpoint plus <path>.spec.json with the layer layout, each file
    published whole.  The sidecar goes first: a checkpoint file, whose
    presence later stages check, appears only once its layout is there."""
    with artifacts.publish(_spec_path(path)) as tmp, open(tmp, "w") as fh:
        json.dump(net.spec.to_json(), fh, indent=1)
    with artifacts.publish(path) as tmp:
        save_params(tmp, net.params, net.frozen)


def load_network(path: str) -> Network:
    spec_path = _spec_path(path)
    layout = artifacts.read_json(spec_path, ModelError,
                                 f"{path}: missing net layout sidecar {spec_path}")
    try:
        spec = NetSpec.from_json(layout)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{spec_path}: invalid net layout: {exc!r}") from None
    except ModelError as exc:
        raise ModelError(f"{spec_path}: {exc}") from None
    params, frozen = load_params(path)
    return Network(spec, params, frozen)
