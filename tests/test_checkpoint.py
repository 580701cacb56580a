"""Checkpoint binary format: exact roundtrips and every corruption path."""

import json
import struct

import numpy as np
import pytest

from hhmon import checkpoint
from hhmon.checkpoint import (
    MAGIC,
    VERSION,
    load_network,
    load_params,
    save_network,
    save_params,
)
from hhmon.errors import ModelError
from hhmon.model import ConvLayer, Network, NetSpec, PoolLayer


def tiny_spec():
    return NetSpec(in_channels=1, clip_len=2, input_size=8, blocks=[
        ConvLayer("conv1", 1, 4, (1, 3, 3)),
        PoolLayer("pool1", (1, 2, 2)),
    ])


def test_params_roundtrip_exact(tmp_path, rng):
    params = {
        "conv1.w": rng.normal(size=(4, 1, 1, 3, 3)).astype(np.float32),
        "conv1.b": rng.normal(size=4).astype(np.float32),
        "head.w": rng.normal(size=(4, 1)).astype(np.float32),
        "head.b": rng.normal(size=1).astype(np.float32),
    }
    path = str(tmp_path / "net.swnet")
    save_params(path, params, frozen={"conv1.w", "conv1.b"})
    back, frozen = load_params(path)
    assert set(back) == set(params)
    for name in params:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], params[name])
    assert frozen == {"conv1.w", "conv1.b"}


def test_identical_params_write_identical_bytes(tmp_path, rng):
    params = {"b": rng.normal(size=3).astype(np.float32),
              "a": rng.normal(size=(2, 2)).astype(np.float32)}
    p1, p2 = str(tmp_path / "one"), str(tmp_path / "two")
    save_params(p1, dict(params), frozen=set())
    save_params(p2, {"a": params["a"], "b": params["b"]}, frozen=set())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_binary_layout_is_as_documented(tmp_path):
    arr = np.array([[1.5, -2.0]], dtype=np.float32)
    path = str(tmp_path / "net.swnet")
    save_params(path, {"w": arr}, frozen={"w"})
    raw = open(path, "rb").read()
    off = 0
    assert raw[:5] == MAGIC == b"SWNET"
    off = 5
    version, count = struct.unpack_from("<II", raw, off)
    off += 8
    assert (version, count) == (VERSION, 1)
    (name_len,) = struct.unpack_from("<I", raw, off)
    off += 4
    assert raw[off : off + name_len] == b"w"
    off += name_len
    frozen_flag, rank = struct.unpack_from("<BB", raw, off)
    off += 2
    assert (frozen_flag, rank) == (1, 2)
    dims = struct.unpack_from("<2I", raw, off)
    off += 8
    assert dims == (1, 2)
    values = struct.unpack_from("<2f", raw, off)
    off += 8
    assert values == (1.5, -2.0)
    assert off == len(raw)


def test_empty_parameter_set_roundtrips(tmp_path):
    path = str(tmp_path / "empty.swnet")
    save_params(path, {}, frozen=set())
    params, frozen = load_params(path)
    assert params == {} and frozen == set()


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "net.swnet")
    with open(path, "wb") as fh:
        fh.write(b"XXNET" + struct.pack("<II", VERSION, 0))
    with pytest.raises(ModelError, match="bad checkpoint magic"):
        load_params(path)


def test_wrong_version_rejected(tmp_path):
    path = str(tmp_path / "net.swnet")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION + 1, 0))
    with pytest.raises(ModelError, match=f"version {VERSION + 1}, expected {VERSION}"):
        load_params(path)


def test_truncation_rejected(tmp_path, rng):
    path = str(tmp_path / "net.swnet")
    save_params(path, {"w": rng.normal(size=8).astype(np.float32)})
    raw = open(path, "rb").read()
    for cut in (3, 8, 14, len(raw) - 5):
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        with pytest.raises(ModelError, match="truncated"):
            load_params(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = str(tmp_path / "net.swnet")
    save_params(path, {"w": rng.normal(size=4).astype(np.float32)})
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00")
    with pytest.raises(ModelError, match="3 trailing bytes"):
        load_params(path)


def test_network_roundtrip_with_sidecar(tmp_path):
    net = Network.init(tiny_spec(), seed=3)
    net.freeze_backbone()
    path = str(tmp_path / "ckpt" / "model.swnet")
    save_network(net, path)
    back = load_network(path)
    assert back.spec == net.spec
    assert back.frozen == net.frozen
    for name in net.params:
        assert np.array_equal(back.params[name], net.params[name])
    x = np.random.default_rng(0).random((2, 1, 2, 8, 8)).astype(np.float32)
    assert np.array_equal(net.score(x), back.score(x))


def test_missing_sidecar_rejected(tmp_path):
    net = Network.init(tiny_spec(), seed=0)
    path = str(tmp_path / "model.swnet")
    save_network(net, path)
    (tmp_path / "model.swnet.spec.json").unlink()
    with pytest.raises(ModelError, match="sidecar"):
        load_network(path)


def test_corrupt_sidecar_rejected(tmp_path):
    net = Network.init(tiny_spec(), seed=0)
    path = str(tmp_path / "model.swnet")
    save_network(net, path)
    (tmp_path / "model.swnet.spec.json").write_text("{not json")
    with pytest.raises(ModelError, match="invalid JSON"):
        load_network(path)


@pytest.mark.parametrize("layout", [{"blocks": []}, "unknown-field"],
                         ids=["no-in-channels", "unknown-block-field"])
def test_malformed_sidecar_layout_rejected(tmp_path, layout):
    net = Network.init(tiny_spec(), seed=0)
    path = str(tmp_path / "model.swnet")
    save_network(net, path)
    if layout == "unknown-field":
        layout = net.spec.to_json()
        layout["blocks"][0]["dilation"] = 2
    (tmp_path / "model.swnet.spec.json").write_text(json.dumps(layout))
    with pytest.raises(ModelError, match=r"model\.swnet\.spec\.json: invalid net layout"):
        load_network(path)


def test_unknown_block_kind_names_the_sidecar(tmp_path):
    net = Network.init(tiny_spec(), seed=0)
    path = str(tmp_path / "model.swnet")
    save_network(net, path)
    layout = net.spec.to_json()
    layout["blocks"][0]["kind"] = "Foo"
    (tmp_path / "model.swnet.spec.json").write_text(json.dumps(layout))
    with pytest.raises(ModelError, match=r"model\.swnet\.spec\.json: unknown block kind 'Foo'"):
        load_network(path)


def test_float64_params_are_stored_as_float32(tmp_path, rng):
    params = {"w": rng.normal(size=4)}
    path = str(tmp_path / "net.swnet")
    save_params(path, params)
    back, _ = load_params(path)
    assert back["w"].dtype == np.float32
    assert np.allclose(back["w"], params["w"], atol=1e-6)


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
