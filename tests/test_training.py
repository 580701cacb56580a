"""SGD loop, frozen-backbone fast path and the pretrain/inflate recipe."""

import numpy as np
import pytest

from hhmon.errors import ConfigError, ModelError
from hhmon.model import (
    ConvLayer,
    Network,
    NetSpec,
    PoolLayer,
    adapt_first_conv_to_flow,
    collapse_temporal,
    inflate_params,
)
from hhmon.training import (
    TrainConfig,
    extract_features,
    inflate_and_freeze,
    pretrain_twin,
    scratch_head_baseline,
    score_clips,
    sgd_train,
    train_head_on_features,
)


def tiny_spec(in_channels=1):
    return NetSpec(in_channels=in_channels, clip_len=2, input_size=8, blocks=[
        ConvLayer("conv1", in_channels, 4, (1, 3, 3)),
        PoolLayer("pool1", (1, 2, 2)),
    ])


def toy_clips(rng, n=20):
    """Brightness-separable binary toy set."""
    x = (rng.random((n, 1, 2, 8, 8)) * 0.2).astype(np.float32)
    y = np.arange(n) % 2
    x[y == 1] += 0.7
    return x, y.astype(np.float64)


def test_zero_learning_rate_changes_nothing(rng):
    net = Network.init(tiny_spec(), seed=0)
    before = {k: v.copy() for k, v in net.params.items()}
    x, y = toy_clips(rng)
    curve = sgd_train(net, x, y, TrainConfig(lr=0.0, epochs=3), 0)
    assert len(curve) == 3
    for k in before:
        assert np.array_equal(net.params[k], before[k])
    # reshuffled batches regroup the float32 loss sum, nothing more
    assert np.allclose(curve, curve[0], rtol=1e-6)


def test_frozen_tensors_never_move(rng):
    net = Network.init(tiny_spec(), seed=1)
    net.freeze_backbone()
    backbone_before = {k: v.copy() for k, v in net.params.items()
                       if not k.startswith("head.")}
    head_before = net.params["head.w"].copy()
    x, y = toy_clips(rng)
    sgd_train(net, x, y, TrainConfig(lr=0.05, epochs=3), 0)
    for k, v in backbone_before.items():
        assert np.array_equal(net.params[k], v)
    assert not np.array_equal(net.params["head.w"], head_before)


def test_training_is_deterministic_for_a_seed(rng):
    x, y = toy_clips(rng)
    nets = [Network.init(tiny_spec(), seed=2) for _ in range(2)]
    curves = [sgd_train(n, x, y, TrainConfig(lr=0.05, epochs=4), 7) for n in nets]
    assert curves[0] == curves[1]
    for k in nets[0].params:
        assert np.array_equal(nets[0].params[k], nets[1].params[k])


def test_loss_falls_on_a_separable_problem(rng):
    net = Network.init(tiny_spec(), seed=3)
    x, y = toy_clips(rng, n=24)
    curve = sgd_train(net, x, y, TrainConfig(lr=0.1, epochs=8), 0)
    assert curve[-1] < 0.5 * curve[0]
    assert curve[-1] < 0.3
    assert np.mean((net.score(x) >= 0.5) == (y == 1)) == 1.0


def test_gradient_vanishes_at_confident_correct_answers(rng):
    # momentum 0 and one full batch turn the update into lr * gradient,
    # so the parameter step measures the gradient directly
    net = Network.init(tiny_spec(), seed=4).cast(np.float64)
    net.params["head.b"][:] = 20.0
    x, _ = toy_clips(rng, n=8)
    y = np.ones(8)
    before = {k: v.copy() for k, v in net.params.items()}
    lr = 0.5
    sgd_train(net, x, y, TrainConfig(lr=lr, momentum=0.0, batch_size=8, epochs=1), 0)
    for k in before:
        step = (before[k] - net.params[k]) / lr
        assert np.abs(step).max() < 1e-6, k


def test_feature_cache_training_matches_full_sgd(rng):
    # with a frozen backbone the cached-feature path must replay the exact
    # same optimization as running the whole network every batch
    x, y = toy_clips(rng, n=20)
    cfg = TrainConfig(lr=0.05, epochs=4, batch_size=8)

    full = Network.init(tiny_spec(), seed=6)
    full.freeze_backbone()
    cached = Network.init(tiny_spec(), seed=6)
    cached.freeze_backbone()

    curve_full = sgd_train(full, x, y, cfg, 5)
    feats, labels = extract_features(cached, zip(x, y), batch_size=cfg.batch_size)
    curve_cached = train_head_on_features(cached, feats, labels, cfg, 5)

    assert np.allclose(curve_full, curve_cached, rtol=1e-5, atol=1e-7)
    assert np.allclose(full.params["head.w"], cached.params["head.w"], atol=1e-5)
    assert np.allclose(full.params["head.b"], cached.params["head.b"], atol=1e-5)


def test_feature_cache_requires_a_frozen_backbone(rng):
    net = Network.init(tiny_spec(), seed=0)
    with pytest.raises(ModelError, match="frozen backbone"):
        train_head_on_features(net, np.zeros((4, 4)), np.zeros(4), TrainConfig(), 0)


def test_extract_features_shapes_and_empty_error(rng):
    net = Network.init(tiny_spec(), seed=0)
    x, y = toy_clips(rng, n=5)
    feats, labels = extract_features(net, zip(x, y), batch_size=2)
    assert feats.shape == (5, 4)
    assert labels.dtype == np.float64
    assert np.array_equal(labels, y)
    assert np.allclose(feats, net.features(x), atol=1e-5)
    with pytest.raises(ModelError, match="no clips"):
        extract_features(net, iter(()))


def test_score_clips_matches_direct_scoring(rng):
    net = Network.init(tiny_spec(), seed=1)
    x, y = toy_clips(rng, n=7)
    batched = score_clips(net, iter(x), batch_size=3)
    assert np.allclose(batched, net.score(x), atol=1e-6)
    assert score_clips(net, iter(())).shape == (0,)


def test_inflate_and_freeze_lifts_the_twin_exactly(rng):
    spec = tiny_spec(in_channels=3)
    twin = Network.init(collapse_temporal(spec), seed=8)
    net = inflate_and_freeze(twin, spec, head_seed=9)
    want = inflate_params(twin.params, spec)
    for name in net.params:
        if name.startswith("head."):
            continue
        assert np.array_equal(net.params[name], want[name]), name
    assert net.frozen == {n for n in net.params if not n.startswith("head.")}
    # the head restarts from a fresh draw, not the twin's
    assert not np.array_equal(net.params["head.w"], twin.params["head.w"])


def test_inflate_and_freeze_flow_variant_adapts_conv1(rng):
    spec = tiny_spec(in_channels=2)
    twin_spec = collapse_temporal(tiny_spec(in_channels=3))
    twin = Network.init(twin_spec, seed=8)
    net = inflate_and_freeze(twin, spec, flow=True)
    adapted = adapt_first_conv_to_flow(twin.params)
    want = inflate_params(adapted, spec)
    assert np.array_equal(net.params["conv1.w"], want["conv1.w"])


def test_transfer_recipe_runs_end_to_end(rng):
    spec = tiny_spec()
    stills = (rng.random((16, 1, 1, 8, 8)) * 0.2).astype(np.float32)
    still_y = np.arange(16, dtype=np.float64) % 2
    stills[still_y == 1] += 0.7
    x, y = toy_clips(rng, n=12)
    # the steps the train stage chains: pretrain the twin, inflate it under
    # a fresh head, then fit the head on cached backbone features
    twin = pretrain_twin(spec, stills, still_y, TrainConfig(lr=0.1, epochs=3), 0)
    net = inflate_and_freeze(twin, spec)
    feats, labels = extract_features(net, zip(x, y))
    curve = train_head_on_features(net, feats, labels, TrainConfig(lr=0.1, epochs=4), 0)
    assert len(curve) == 4
    assert net.frozen
    assert net.score(x).shape == (12,)


def test_scratch_baseline_keeps_the_random_backbone(rng):
    spec = tiny_spec()
    x, y = toy_clips(rng, n=12)
    result = scratch_head_baseline(spec, zip(x, y), TrainConfig(lr=0.1, epochs=2),
                                   seed=11, head_seed=12)
    reference = Network.init(spec, seed=11)
    for name, v in result.network.params.items():
        if not name.startswith("head."):
            assert np.array_equal(v, reference.params[name]), name


def test_pretrain_twin_trains_the_collapsed_spec(rng):
    spec = tiny_spec()
    stills = (rng.random((16, 1, 1, 8, 8)) * 0.2).astype(np.float32)
    y = np.arange(16, dtype=np.float64) % 2
    stills[y == 1] += 0.7
    twin = pretrain_twin(spec, stills, y, TrainConfig(lr=0.1, epochs=5), 0)
    assert twin.spec.clip_len == 1
    assert np.mean((twin.score(stills) >= 0.5) == (y == 1)) >= 0.9


def test_sgd_rejects_bad_inputs(rng):
    net = Network.init(tiny_spec(), seed=0)
    x, y = toy_clips(rng, n=4)
    with pytest.raises(ModelError, match="empty"):
        sgd_train(net, x[:0], y[:0], TrainConfig(), 0)
    with pytest.raises(ModelError, match="labels"):
        sgd_train(net, x, y[:3], TrainConfig(), 0)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="lr"):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    TrainConfig(lr=0.0, momentum=0.0)  # boundary values stay legal
