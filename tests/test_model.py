"""Network assembly and 2D-to-3D inflation."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhmon.errors import ModelError
from hhmon.layers import bce_with_logits
from hhmon.model import (
    ConvLayer,
    MixedBlock,
    Network,
    NetSpec,
    PoolLayer,
    adapt_first_conv_to_flow,
    collapse_temporal,
    conv_param_shapes,
    i3d_mini,
    inflate_2d_to_3d,
    inflate_params,
    init_params,
)


def micro_spec(in_channels=2):
    return NetSpec(in_channels=in_channels, clip_len=4, input_size=8, blocks=[
        ConvLayer("conv1", in_channels, 3, (3, 3, 3), (1, 2, 2)),
        PoolLayer("pool1", (2, 2, 2)),
        MixedBlock("mixed1", 3, b0=2, b1_reduce=2, b1=2, b2_reduce=1, b2=1, b3=1),
    ])


def test_inflation_divides_by_temporal_extent():
    k2 = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # (1, 1, 2, 2)
    k3 = inflate_2d_to_3d(k2, 3)
    assert k3.shape == (1, 1, 3, 2, 2)
    for t in range(3):
        assert np.array_equal(k3[:, :, t], k2 / 3.0)
    assert np.allclose(k3.sum(axis=2), k2)


def test_inflation_with_unit_extent_is_a_reshape():
    k2 = np.arange(12.0).reshape(2, 3, 1, 2)
    k3 = inflate_2d_to_3d(k2, 1)
    assert k3.shape == (2, 3, 1, 1, 2)
    assert np.array_equal(k3[:, :, 0], k2)


def test_inflation_validation():
    with pytest.raises(ModelError, match=">= 1"):
        inflate_2d_to_3d(np.zeros((1, 1, 2, 2)), 0)
    with pytest.raises(ModelError, match="4d"):
        inflate_2d_to_3d(np.zeros((1, 1, 2)), 2)


def test_inflate_params_preserves_temporal_sums():
    spec3 = micro_spec()
    spec2 = collapse_temporal(spec3)
    params2 = init_params(spec2, np.random.default_rng(4), dtype=np.float64)
    params3 = inflate_params(params2, spec3)
    assert set(params3) == set(conv_param_shapes(spec3))
    for name, p3 in params3.items():
        if p3.ndim == 5:
            assert np.allclose(p3.sum(axis=2, keepdims=True), params2[name], atol=1e-12)
        else:
            assert np.array_equal(p3, params2[name])


def test_collapse_temporal_flattens_every_time_axis():
    spec = i3d_mini()
    twin = collapse_temporal(spec)
    assert twin.clip_len == 1
    assert twin.input_size == spec.input_size
    for b in twin.blocks:
        if isinstance(b, ConvLayer):
            assert b.kernel[0] == 1 and b.stride[0] == 1
        elif isinstance(b, PoolLayer):
            assert b.kernel[0] == 1
        else:
            assert b.kt == 1
    # channel arithmetic is untouched
    assert twin.head_features == spec.head_features == 32


def test_repeated_frame_clip_matches_the_2d_twin():
    # with circular temporal padding a time-constant clip must score exactly
    # like its single frame through the collapsed network
    rng = np.random.default_rng(7)
    spec3 = micro_spec(in_channels=3)
    spec2 = collapse_temporal(spec3)
    params2 = init_params(spec2, rng, dtype=np.float64)
    params3 = inflate_params(params2, spec3)
    frame = rng.random((2, 3, 1, 8, 8))
    clip = np.repeat(frame, spec3.clip_len, axis=2)
    logits2, _ = Network(spec2, params2).forward(frame)
    logits3, _ = Network(spec3, params3).forward(clip, temporal_pad="circular")
    assert np.abs(logits3 - logits2).max() < 1e-10
    # zero temporal padding sees the clip ends and breaks the identity
    logits_zero, _ = Network(spec3, params3).forward(clip, temporal_pad="zero")
    assert np.abs(logits_zero - logits2).max() > 1e-6


def test_flow_adaptation_averages_then_repeats():
    rng = np.random.default_rng(0)
    spec = micro_spec(in_channels=3)
    params = init_params(spec, rng, dtype=np.float64)
    adapted = adapt_first_conv_to_flow(params, n_channels=2)
    w = params["conv1.w"]
    assert adapted["conv1.w"].shape == (3, 2, 3, 3, 3)
    mean = w.mean(axis=1)
    assert np.array_equal(adapted["conv1.w"][:, 0], mean)
    assert np.array_equal(adapted["conv1.w"][:, 1], mean)
    assert np.array_equal(adapted["conv1.b"], params["conv1.b"])
    # the source set is left alone
    assert params["conv1.w"].shape == (3, 3, 3, 3, 3)


def test_netspec_json_roundtrip():
    spec = i3d_mini(in_channels=2, input_size=48, clip_len=8)
    encoded = json.dumps(spec.to_json())
    back = NetSpec.from_json(json.loads(encoded))
    assert back == spec


def test_netspec_rejects_unknown_block_kind():
    d = i3d_mini().to_json()
    d["blocks"][0]["kind"] = "DeformableConv"
    with pytest.raises(ModelError, match="unknown block kind"):
        NetSpec.from_json(d)


def test_network_validates_parameter_set():
    spec = micro_spec()
    params = init_params(spec, np.random.default_rng(0))
    broken = dict(params)
    del broken["conv1.b"]
    with pytest.raises(ModelError, match="missing parameters: conv1.b"):
        Network(spec, broken)
    bad_shape = dict(params)
    bad_shape["head.w"] = np.zeros((3, 1), dtype=np.float32)
    with pytest.raises(ModelError, match="head.w"):
        Network(spec, bad_shape)
    with pytest.raises(ModelError, match="frozen names"):
        Network(spec, params, frozen={"conv9.w"})


def test_zeroed_head_scores_exactly_half(rng):
    net = Network.init(micro_spec(), seed=0)
    net.params["head.w"][:] = 0.0
    net.params["head.b"][:] = 0.0
    x = rng.random((3, 2, 4, 8, 8)).astype(np.float32)
    assert np.array_equal(net.score(x), np.full(3, 0.5))


def test_identical_samples_get_identical_scores(rng):
    net = Network.init(micro_spec(), seed=1)
    one = rng.random((1, 2, 4, 8, 8)).astype(np.float32)
    batch = np.repeat(one, 4, axis=0)
    scores = net.score(batch)
    assert np.all(scores == scores[0])
    assert np.all((scores > 0) & (scores < 1))


def test_wrong_channel_count_is_rejected(rng):
    net = Network.init(micro_spec(in_channels=2), seed=0)
    x = rng.random((1, 3, 4, 8, 8)).astype(np.float32)
    with pytest.raises(ModelError, match="expects 2 input channels"):
        net.forward(x)
    with pytest.raises(ModelError, match="expects 2 input channels"):
        net.features(x)
    with pytest.raises(ModelError, match="5d"):
        net.forward(x[0])


def test_head_applied_to_features_reproduces_logits(rng):
    net = Network.init(micro_spec(), seed=2).cast(np.float64)
    x = rng.random((2, 2, 4, 8, 8))
    feats = net.features(x)
    assert feats.shape == (2, net.spec.head_features)
    logits, _ = net.forward(x)
    manual = feats @ net.params["head.w"] + net.params["head.b"]
    assert np.allclose(logits, manual[:, 0], atol=1e-12)


def test_freeze_backbone_keeps_only_head_gradients(rng):
    net = Network.init(micro_spec(), seed=3).cast(np.float64)
    net.freeze_backbone()
    assert "head.w" not in net.frozen and "head.b" not in net.frozen
    assert all(n in net.frozen for n in net.params if not n.startswith("head."))
    x = rng.random((2, 2, 4, 8, 8))
    logits, caches = net.forward(x, want_cache=True)
    _, dlogits = bce_with_logits(logits, np.array([1.0, 0.0]))
    grads = net.backward(dlogits, caches)
    assert sorted(grads) == ["head.b", "head.w"]


def test_network_gradients_match_finite_differences(rng):
    # full graph: strided conv, pool, all four mixed branches, head
    net = Network.init(micro_spec(), seed=5).cast(np.float64)
    x = rng.random((2, 2, 4, 8, 8))
    labels = np.array([1.0, 0.0])

    def loss():
        logits, _ = net.forward(x)
        return bce_with_logits(logits, labels)[0]

    logits, caches = net.forward(x, want_cache=True)
    _, dlogits = bce_with_logits(logits, labels)
    grads = net.backward(dlogits, caches)
    assert sorted(grads) == sorted(net.params)

    h = 1e-5
    for name in sorted(net.params):
        p = net.params[name]
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            keep = p[i]
            p[i] = keep + h
            fp = loss()
            p[i] = keep - h
            fm = loss()
            p[i] = keep
            fd[i] = (fp - fm) / (2.0 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        err = np.abs(grads[name] - fd).max() / scale
        assert err < 1e-4, f"{name}: rel err {err}"


def test_default_topology_dimensions():
    spec = i3d_mini()
    shapes = conv_param_shapes(spec)
    assert shapes["conv1.w"] == (8, 3, 3, 5, 5)
    assert shapes["mixed1.b1.w"] == (8, 4, 3, 3, 3)
    assert shapes["mixed2.b3.w"] == (4, 24, 1, 1, 1)
    assert shapes["head.w"] == (32, 1)
    net = Network.init(spec, seed=0)
    x = np.random.default_rng(0).random((1, 3, 16, 56, 56)).astype(np.float32)
    logits, _ = net.forward(x)
    assert logits.shape == (1,)
