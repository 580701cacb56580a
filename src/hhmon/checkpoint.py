"""Network checkpoints: the layer layout and the parameters in one binary file.

File format: magic "SWNET", u32 version, u32 length and the UTF-8 JSON of the
layer layout (`NetSpec.to_json`), u32 tensor count, then per tensor
{u32 name length, name bytes, u8 frozen, u8 rank, u32 dims..., f32 data}.
Everything little-endian; tensors are written sorted by name so identical
networks produce identical files.  The file is published whole, so a save
cut short leaves the earlier checkpoint, layout and parameters together.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import artifacts
from .errors import ModelError
from .model import NetSpec, Network

MAGIC = b"SWNET"
VERSION = 2


def save_network(net: Network, path: str) -> None:
    layout = json.dumps(net.spec.to_json()).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(layout)), layout,
             struct.pack("<I", len(net.params))]
    for name in sorted(net.params):
        arr = np.ascontiguousarray(net.params[name], dtype="<f4")
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw,
                  struct.pack("<BB", 1 if name in net.frozen else 0, arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    artifacts.write(path, b"".join(parts))


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


def load_network(path: str) -> Network:
    r = _Reader(artifacts.read(path, ModelError), path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ModelError(f"{path}: bad checkpoint magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise ModelError(f"{path}: checkpoint version {version}, expected {VERSION}")
    (layout_len,) = r.unpack("<I")
    layout = r.take(layout_len)
    (count,) = r.unpack("<I")
    params: dict[str, np.ndarray] = {}
    frozen: set[str] = set()
    for _ in range(count):
        (name_len,) = r.unpack("<I")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelError(f"{path}: tensor name is not UTF-8") from None
        flag, rank = r.unpack("<BB")
        dims = r.unpack(f"<{rank}I")
        n = math.prod(dims)  # no overflow: dims that claim more than the file holds are truncation
        params[name] = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(dims).astype(np.float32)
        if flag:
            frozen.add(name)
    if r.off != len(r.data):
        raise ModelError(f"{path}: {len(r.data) - r.off} trailing bytes after last tensor")
    try:
        return Network(NetSpec.from_json(json.loads(layout.decode("utf-8"))), params, frozen)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: invalid net layout: {exc!r}") from None
