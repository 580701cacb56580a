"""Checkpoint binary format: exact roundtrips and every corruption path."""

import json
import os
import re
import struct

import numpy as np
import pytest
from helpers import checkpoint_layout, rewrite_layout

from hhmon import checkpoint
from hhmon.checkpoint import MAGIC, VERSION, load_network, save_network
from hhmon.errors import ModelError
from hhmon.model import ConvLayer, Network, NetSpec, PoolLayer, i3d_mini


def tiny_spec():
    return NetSpec(in_channels=1, clip_len=2, input_size=8, blocks=[
        ConvLayer("conv1", 1, 4, (1, 3, 3)),
        PoolLayer("pool1", (1, 2, 2)),
    ])


def saved(tmp_path, net=None, name="model.swnet"):
    path = str(tmp_path / name)
    save_network(net or Network.init(tiny_spec(), seed=0), path)
    return path


def test_network_roundtrip_exact(tmp_path):
    net = Network.init(i3d_mini(input_size=24), seed=3)
    net.freeze_backbone()
    path = str(tmp_path / "ckpt" / "model.swnet")
    save_network(net, path)
    # one file: the layout travels inside the checkpoint
    assert os.listdir(tmp_path / "ckpt") == ["model.swnet"]
    back = load_network(path)
    assert back.spec == net.spec
    assert back.frozen == net.frozen and "head.w" not in back.frozen
    assert set(back.params) == set(net.params)
    for name in net.params:
        assert back.params[name].dtype == np.float32
        assert np.array_equal(back.params[name], net.params[name])
    x = np.random.default_rng(0).random((2, 3, 16, 24, 24)).astype(np.float32)
    assert np.array_equal(net.score(x), back.score(x))


def test_identical_networks_write_identical_bytes(tmp_path):
    net = Network.init(tiny_spec(), seed=1)
    reordered = Network(net.spec, dict(reversed(net.params.items())), net.frozen)
    assert list(reordered.params) != list(net.params)
    p1, p2 = saved(tmp_path, net, "one"), saved(tmp_path, reordered, "two")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_binary_layout_is_as_documented(tmp_path):
    spec = NetSpec(in_channels=1, clip_len=1, input_size=1, blocks=[])
    net = Network(spec, {"head.w": np.array([[1.5]], dtype=np.float32),
                         "head.b": np.array([-2.0], dtype=np.float32)}, {"head.w"})
    raw = open(saved(tmp_path, net), "rb").read()
    assert raw[:5] == MAGIC == b"SWNET"
    off = 5
    version, layout_len = struct.unpack_from("<II", raw, off)
    off += 8
    assert (version, VERSION) == (2, 2)
    assert json.loads(raw[off : off + layout_len].decode("utf-8")) == spec.to_json()
    off += layout_len
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    assert count == 2
    for name, frozen, dims, values in ((b"head.b", 0, (1,), (-2.0,)),
                                       (b"head.w", 1, (1, 1), (1.5,))):
        (name_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        assert raw[off : off + name_len] == name
        off += name_len
        assert struct.unpack_from("<BB", raw, off) == (frozen, len(dims))
        off += 2
        assert struct.unpack_from(f"<{len(dims)}I", raw, off) == dims
        off += 4 * len(dims)
        assert struct.unpack_from("<f", raw, off) == values
        off += 4
    assert off == len(raw)


def test_float64_params_are_stored_as_float32(tmp_path):
    net = Network.init(tiny_spec(), seed=2, dtype=np.float64)
    back = load_network(saved(tmp_path, net))
    for name, arr in net.params.items():
        assert arr.dtype == np.float64 and back.params[name].dtype == np.float32
        assert np.array_equal(back.params[name], arr.astype(np.float32))


def test_bad_magic_rejected(tmp_path):
    path = saved(tmp_path)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(b"XXNET" + raw[5:])
    with pytest.raises(ModelError, match="bad checkpoint magic"):
        load_network(path)


def test_wrong_version_rejected(tmp_path):
    path = saved(tmp_path)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION + 1) + raw[9:])
    with pytest.raises(ModelError, match=f"version {VERSION + 1}, expected {VERSION}"):
        load_network(path)


def test_a_version_1_checkpoint_is_refused(tmp_path):
    # version 1 kept the layout in a <path>.spec.json beside the parameters,
    # which followed the version as {u32 count, tensors}
    path = str(tmp_path / "old.swnet")
    w = np.zeros((4, 1), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", 1, 1))
        fh.write(struct.pack("<I", 6) + b"head.w" + struct.pack("<BB2I", 0, 2, 4, 1))
        fh.write(w.tobytes())
    with pytest.raises(ModelError,
                       match=rf"^{re.escape(path)}: checkpoint version 1, expected 2$"):
        load_network(path)


def test_truncation_rejected(tmp_path):
    path = saved(tmp_path)
    raw = open(path, "rb").read()
    (layout_len,) = struct.unpack_from("<I", raw, 9)
    # in the magic, the version, the layout length, the layout, the tensor
    # count, a name and the last tensor's data
    for cut in (3, 7, 11, 13 + layout_len // 2, 13 + layout_len + 2,
                13 + layout_len + 6, len(raw) - 5):
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        with pytest.raises(ModelError, match="truncated"):
            load_network(path)


def _one_tensor_checkpoint(path, name, dims):
    """A checkpoint file of one tensor, with 16 data bytes whatever its dims."""
    layout = b"{}"
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(layout)) + layout + struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(name)) + name + struct.pack("<BB", 0, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims) + bytes(16))


def test_dims_whose_product_overflows_int64_are_a_truncation(tmp_path):
    path = str(tmp_path / "model.swnet")
    _one_tensor_checkpoint(path, b"head.w", (2**31, 2**31, 4))
    with pytest.raises(ModelError, match=rf"^{re.escape(path)}: truncated checkpoint$"):
        load_network(path)


def test_a_tensor_name_that_is_not_utf8_names_the_checkpoint(tmp_path):
    path = str(tmp_path / "model.swnet")
    _one_tensor_checkpoint(path, b"head.\xff", (4,))
    with pytest.raises(ModelError, match=rf"^{re.escape(path)}: tensor name is not UTF-8$"):
        load_network(path)


def test_trailing_bytes_rejected(tmp_path):
    path = saved(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00")
    with pytest.raises(ModelError, match="3 trailing bytes"):
        load_network(path)


def _unknown_field(layout):
    layout["blocks"][0]["dilation"] = 2
    return layout


def _unknown_kind(layout):
    layout["blocks"][0]["kind"] = "Foo"
    return layout


@pytest.mark.parametrize("edit, message", [
    (lambda layout: b"{not json", r"invalid net layout: JSONDecodeError"),
    (lambda layout: b'{"in_channels": "\xc3\x28"}', r"invalid net layout: UnicodeDecodeError"),
    (lambda layout: {"blocks": []}, r"invalid net layout: KeyError\('in_channels'\)"),
    (lambda layout: [1, 2], r"invalid net layout: TypeError"),
    (_unknown_field, r"invalid net layout: TypeError.*dilation"),
    (_unknown_kind, r"unknown block kind 'Foo' in net config"),
], ids=["invalid-json", "not-utf8", "no-in-channels", "not-an-object", "unknown-block-field",
        "unknown-block-kind"])
def test_a_layout_fault_names_the_checkpoint(tmp_path, edit, message):
    path = saved(tmp_path)
    rewrite_layout(path, edit(checkpoint_layout(path)))
    with pytest.raises(ModelError, match=rf"^{re.escape(path)}: {message}"):
        load_network(path)


def test_a_layout_that_does_not_fit_the_parameters_names_the_checkpoint(tmp_path):
    path = saved(tmp_path)
    layout = checkpoint_layout(path)
    layout["blocks"][0]["out_channels"] = 5
    rewrite_layout(path, layout)
    with pytest.raises(ModelError, match=rf"^{re.escape(path)}: conv1\.w: shape"):
        load_network(path)


class _PackFailsAfter:
    """Stands in for `struct` in the checkpoint module: the n+1-th pack
    raises, as if the run were killed in the middle of writing the file."""

    def __init__(self, n):
        self.n = n

    def pack(self, *args):
        self.n -= 1
        if self.n < 0:
            raise KeyboardInterrupt
        return struct.pack(*args)

    def __getattr__(self, name):
        return getattr(struct, name)


def test_interrupted_save_leaves_no_truncated_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.swnet"
    save_network(Network.init(tiny_spec(), seed=1), str(path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(checkpoint, "struct", _PackFailsAfter(3))
    with pytest.raises(KeyboardInterrupt):
        save_network(Network.init(tiny_spec(), seed=2), str(path))
    # the previous checkpoint is intact and no temp file is left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    load_network(str(path))

    monkeypatch.setattr(checkpoint, "struct", _PackFailsAfter(3))
    with pytest.raises(KeyboardInterrupt):
        save_network(Network.init(tiny_spec(), seed=2), str(tmp_path / "fresh.swnet"))
    # a first save cut short leaves no checkpoint, so the next run rebuilds it
    assert not (tmp_path / "fresh.swnet").exists()
