import pytest

import tracing
from tracing import Span, Tracer


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_children_on_a_hand_made_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.x", 1.5, 2.0, parent=1),
        span("a.y", 2.5, 3.5, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 4.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("c1", 2.0, 6.0, parent=0),
        span("c2", 4.0, 8.0, parent=0),   # overlaps c1 on [4, 6]
        span("c3", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


BLOCKS = [["conv1", "ConvLayer"], ["pool1", "PoolLayer"], ["mixed1", "MixedBlock"],
          ["pool2", "PoolLayer"], ["mixed2", "MixedBlock"]]


def _mixed_forward(name):
    calls = []
    for branch in ("b0", "b1r", "b1", "b2r", "b2"):
        calls += [("conv3d_forward", f"{name}.{branch}.w", None), ("relu_forward", None, None)]
    calls.append(("maxpool3d_forward", None, [1, 1, 1]))
    calls += [("conv3d_forward", f"{name}.b3.w", None), ("relu_forward", None, None),
              ("concat_forward", None, None)]
    return calls


def _mixed_backward(name):
    calls = [("concat_backward", None, None)]
    for branch in ("b0", "b1", "b1r", "b2", "b2r", "b3"):
        calls += [("relu_backward", None, None), ("conv3d_backward", f"{name}.{branch}.w", None)]
    calls.append(("maxpool3d_backward", None, [1, 1, 1]))
    return calls


def test_blocks_are_attributed_in_a_forward_walk():
    calls = ([("conv3d_forward", "conv1.w", None), ("relu_forward", None, None),
              ("maxpool3d_forward", None, [1, 2, 2])] + _mixed_forward("mixed1")
             + [("maxpool3d_forward", None, [2, 2, 2])] + _mixed_forward("mixed2")
             + [("global_avg_pool_forward", None, None), ("dense_forward", None, None)])
    got = tracing.attribute_blocks(BLOCKS, calls, backward=False)
    want = (["conv1"] * 2 + ["pool1"] + ["mixed1"] * 14 + ["pool2"] + ["mixed2"] * 14
            + [None, None])
    assert got == want


def test_blocks_are_attributed_in_a_backward_walk():
    calls = ([("dense_backward", None, None), ("global_avg_pool_backward", None, None)]
             + _mixed_backward("mixed2") + [("maxpool3d_backward", None, [2, 2, 2])]
             + _mixed_backward("mixed1") + [("maxpool3d_backward", None, [1, 2, 2])]
             + [("relu_backward", None, None), ("conv3d_backward", "conv1.w", None)])
    got = tracing.attribute_blocks(BLOCKS, calls, backward=True)
    want = ([None, None] + ["mixed2"] * 14 + ["pool2"] + ["mixed1"] * 14 + ["pool1"]
            + ["conv1"] * 2)
    assert got == want


def test_install_records_nested_spans_and_restore_undoes_it():
    import numpy as np

    from hhmon import frameio, tvl1

    original = frameio.resize_bilinear
    tracer = Tracer()
    restore = tracing.install(tracer)
    try:
        assert frameio.resize_bilinear is not original
        img = np.random.default_rng(0).random((24, 24)).astype(np.float32)
        tvl1.tvl1_flow(img, img)  # outside `recording`: nothing kept
        assert tracer.spans == []
        with tracer.recording(3):
            tvl1.tvl1_flow(img, img)
    finally:
        restore()
    assert frameio.resize_bilinear is original
    spans = tracer.spans_of(3)
    assert spans[0].name == "tvl1.tvl1_flow" and spans[0].parent == -1
    assert {s.name for s in spans[1:]} >= {"backend.warp_bilinear", "backend.tvl1_iterations"}
    assert all(s.parent == 0 for s in spans if s.name.startswith("backend."))
    m = tracing.unit_metrics(spans)
    assert m["tvl1.pairs"] == 1
    assert m["backend.tvl1_iterations.calls"] == m["backend.warp_bilinear.calls"] / 3
    assert m["layers.conv3d_forward.calls"] == 0


def test_every_per_layer_metric_is_declared_in_benchmark_json():
    import run

    produced = set(tracing.unit_metrics([])) | {"trace.overhead_ratio"}
    assert produced == set(run.declared_units(trace=True))
