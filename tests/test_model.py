"""Network assembly and 2D-to-3D inflation."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhmon import layers
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
    min_input_size,
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


@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
def test_forward_without_cache_matches_the_training_forward(rng, temporal_pad):
    # an inflated backbone takes the box-sum route, which sums in another
    # float32 order; a random backbone keeps the general convolutions, and
    # separable pooling changes no bits
    spec = micro_spec(in_channels=3)
    inflated = Network(spec, inflate_params(init_params(collapse_temporal(spec), rng), spec))
    scratch = Network.init(spec, seed=4)
    x = rng.uniform(-1, 1, size=(3, 3, 4, 8, 8)).astype(np.float32)
    for net, bitwise in ((inflated, False), (scratch, True)):
        want, tape = net.forward(x, temporal_pad, want_cache=True)
        got, no_tape = net.forward(x, temporal_pad)
        assert tape and no_tape is None
        if bitwise:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_flow_adaptation_averages_then_repeats():
    rng = np.random.default_rng(0)
    spec = micro_spec(in_channels=3)
    params = init_params(spec, rng, dtype=np.float64)
    adapted = adapt_first_conv_to_flow(params)
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
    net = Network.init(micro_spec(), seed=2, dtype=np.float64)
    x = rng.random((2, 2, 4, 8, 8))
    feats = net.features(x)
    assert feats.shape == (2, net.spec.head_features)
    logits, _ = net.forward(x)
    manual = feats @ net.params["head.w"] + net.params["head.b"]
    assert np.allclose(logits, manual[:, 0], atol=1e-12)


def test_head_rejects_feature_mismatch(rng):
    net = Network.init(micro_spec(), seed=2)
    with pytest.raises(ModelError, match="head expects 6 features, got 5"):
        net.head(rng.normal(size=(2, 5)))


def test_freeze_backbone_keeps_only_head_gradients(rng):
    net = Network.init(micro_spec(), seed=3, dtype=np.float64)
    net.freeze_backbone()
    assert "head.w" not in net.frozen and "head.b" not in net.frozen
    assert all(n in net.frozen for n in net.params if not n.startswith("head."))
    x = rng.random((2, 2, 4, 8, 8))
    logits, tape = net.forward(x, want_cache=True)
    _, dlogits = bce_with_logits(logits, np.array([1.0, 0.0]))
    grads = net.backward(dlogits, tape)
    assert sorted(grads) == ["head.b", "head.w"]


def test_network_gradients_match_finite_differences(rng):
    # full graph: strided conv, pool, all four mixed branches, head
    net = Network.init(micro_spec(), seed=5, dtype=np.float64)
    x = rng.random((2, 2, 4, 8, 8))
    labels = np.array([1.0, 0.0])

    def loss():
        logits, _ = net.forward(x)
        return bce_with_logits(logits, labels)[0]

    logits, tape = net.forward(x, want_cache=True)
    _, dlogits = bce_with_logits(logits, labels)
    grads = net.backward(dlogits, tape)
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


def test_backward_calls_the_layers_last_block_first(monkeypatch):
    # perfbench names the block of each layer call inside Network.backward
    # from this order: blocks last to first; in a mixed block b0, b1, b1r,
    # b2, b2r, b3, then its stride-1 pool
    net = Network.init(i3d_mini(input_size=16, clip_len=4), seed=0)
    names = {id(a): name for name, a in net.params.items()}
    calls = []
    conv_backward, pool_backward = layers.conv3d_backward, layers.maxpool3d_backward

    def conv_spy(dy, cache, *want_dx):
        calls.append(names[id(cache[1])].removesuffix(".w"))
        return conv_backward(dy, cache, *want_dx)

    def pool_spy(dy, cache):
        calls.append(f"pool stride {cache[3]}")
        return pool_backward(dy, cache)

    monkeypatch.setattr(layers, "conv3d_backward", conv_spy)
    monkeypatch.setattr(layers, "maxpool3d_backward", pool_spy)
    x = np.random.default_rng(0).random((1, 3, 4, 16, 16)).astype(np.float32)
    logits, tape = net.forward(x, want_cache=True)
    net.backward(bce_with_logits(logits, np.array([1.0]))[1], tape)

    def mixed(name):
        return ([f"{name}.{branch}" for branch in ("b0", "b1", "b1r", "b2", "b2r", "b3")]
                + ["pool stride (1, 1, 1)"])
    assert calls == (mixed("mixed2") + ["pool stride (2, 2, 2)"] + mixed("mixed1")
                     + ["pool stride (1, 2, 2)", "conv1"])


def test_a_training_step_skips_only_the_batch_gradient(monkeypatch):
    # conv1's input is the batch, whose gradient nothing reads: its backward
    # step builds no input gradient, and every parameter gradient keeps the
    # bits of a step in which every convolution folds its input gradient
    net = Network.init(i3d_mini(input_size=16, clip_len=4), seed=0)
    names = {id(a): name for name, a in net.params.items()}
    x = np.random.default_rng(1).uniform(-1, 1, (2, 3, 4, 16, 16)).astype(np.float32)
    conv_backward = layers.conv3d_backward

    def step(spy):
        monkeypatch.setattr(layers, "conv3d_backward", spy)
        logits, tape = net.forward(x, want_cache=True)
        return net.backward(bce_with_logits(logits, np.array([1.0, 0.0]))[1], tape)

    folded = []

    def fold_every_input(dy, cache, want_dx=True):
        folded.append(names[id(cache[1])])
        return conv_backward(dy, cache)
    want = step(fold_every_input)

    skipped = {}

    def record(dy, cache, want_dx=True):
        out = conv_backward(dy, cache, want_dx)
        skipped[names[id(cache[1])]] = out[0] is None
        return out
    got = step(record)

    assert sorted(skipped) == sorted(folded) and "conv1.w" in skipped
    assert {name for name, none in skipped.items() if none} == {"conv1.w"}
    assert sorted(got) == sorted(want) == sorted(net.params)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("first", ["conv", "mixed"])
def test_training_step_leaves_the_batch_unchanged(rng, first):
    # a pointwise conv's cache holds a view of its input, not a copy; with a
    # mixed block first, that input is the batch itself
    spec = micro_spec()
    if first == "mixed":
        spec.blocks = [MixedBlock("mixed0", 2, b0=2, b1_reduce=2, b1=3, b2_reduce=1, b2=1,
                                  b3=2), *spec.blocks]
        spec.blocks[1] = ConvLayer("conv1", 8, 3, (3, 3, 3), (1, 2, 2))
    net = Network.init(spec, seed=6)
    x = rng.uniform(-1, 1, size=(2, 2, 4, 8, 8)).astype(np.float32)
    before = x.copy()
    labels = np.array([1.0, 0.0])

    def step(batch):
        logits, tape = net.forward(batch, want_cache=True)
        return net.backward(bce_with_logits(logits, labels)[1], tape)

    grads = step(x)
    assert x.tobytes() == before.tobytes()
    on_copy = step(before.copy())
    assert sorted(grads) == sorted(on_copy) == sorted(net.params)
    for name in grads:
        assert np.array_equal(grads[name], on_copy[name]), name


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


def test_min_input_size_is_the_smallest_side_every_block_takes():
    # i3d_mini: 7 -> 4 (conv1) -> 2 (pool1) -> 1 (pool2); 6 fails at pool2
    valid_pool = NetSpec(in_channels=1, clip_len=4, input_size=8, blocks=[
        PoolLayer("pool1", (1, 3, 3), (1, 2, 2)),
        ConvLayer("conv1", 1, 2, (1, 3, 3), (1, 3, 3)),
        PoolLayer("pool2", (1, 2, 2), (1, 1, 1), "same"),
    ])
    assert min_input_size(valid_pool) == 3
    assert min_input_size(micro_spec()) == 3
    assert min_input_size(i3d_mini()) == 7
    for spec in (i3d_mini(), collapse_temporal(i3d_mini()), valid_pool, micro_spec()):
        least = min_input_size(spec)
        for side, fits in ((least, True), (least - 1, False)):
            net = Network.init(spec, seed=0)
            x = np.zeros((1, spec.in_channels, spec.clip_len, side, side), dtype=np.float32)
            if fits:
                assert net.features(x).shape == (1, spec.head_features)
            else:
                with pytest.raises(ModelError, match="exceeds input"):
                    net.features(x)
