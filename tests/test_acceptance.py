"""Acceptance gate for the whole artifact.

Each test covers one contract, prints a single [PASS]/[FAIL] line with the
measured value and its budget, then asserts.  The desk-scale run near the
bottom generates, prepares, flows, trains and evaluates the full default
configuration once per session; budget 15 minutes.

Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import time

import numpy as np
import pytest

from helpers import smooth_texture
from test_layers import conv3d_oracle, numeric_grad, random_conv_case
from test_metrics import metrics_oracle

from hhmon import cli, frameio, pipeline, tracking
from hhmon.checkpoint import load_network, save_network
from hhmon.clipset import (
    AnnotationRecord,
    AugmentConfig,
    load_annotations,
    save_annotations,
    window_starts,
)
from hhmon.config import load_config
from hhmon.frameio import Frame, FrameSequence
from hhmon.layers import bce_with_logits, conv3d_forward
from hhmon.metrics import ConfusionMatrix, metrics
from hhmon.model import (
    ConvLayer,
    MixedBlock,
    Network,
    NetSpec,
    collapse_temporal,
    i3d_mini,
    inflate_params,
    init_params,
)
from hhmon.pose import BBox, upper_body_roi
from hhmon.synth import SceneSpec, generate_scene
from hhmon.tracking import SmoothingConfig, Track, link_detections, smooth_track
from hhmon.tvl1 import TvL1Params, tvl1_flow


def crit(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_partition(rng, total, parts, minimum=16):
    extra = rng.multinomial(total - parts * minimum, [1.0 / parts] * parts)
    return [minimum + int(e) for e in extra]


def test_positive_window_count_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    aug = AugmentConfig()
    bad = []
    for total, want in ((231, 111), (232, 112)):
        for _ in range(50):
            lengths = random_partition(rng, total, parts=8)
            got = sum(len(window_starts(n, 1, aug)) for n in lengths)
            if got != want or got != sum(n - 15 for n in lengths):
                bad.append((lengths, got, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    crit(capsys, "positive window count", ok,
         f"8 clips / 231 frames -> 111 and 232 -> 112 on 100 random "
         f"partitions, {elapsed:.2f}s of 1s" + (f"; first failure {bad[0]}" if bad else ""))


def test_repeated_frame_clip_equals_the_2d_twin(capsys):
    t0 = time.perf_counter()
    spec3 = i3d_mini()
    spec2 = collapse_temporal(spec3)
    params2 = init_params(spec2, np.random.default_rng(1), dtype=np.float64)
    params3 = inflate_params(params2, spec3)
    frame = np.random.default_rng(2).random((1, 3, 1, spec3.input_size, spec3.input_size))
    clip = np.repeat(frame, spec3.clip_len, axis=2)
    logits2, _ = Network(spec2, params2).forward(frame)
    logits3, _ = Network(spec3, params3).forward(clip, temporal_pad="circular")
    diff = float(np.abs(logits3 - logits2).max())
    elapsed = time.perf_counter() - t0
    ok = diff < 1e-10 and elapsed < 10.0
    crit(capsys, "repeated-frame clip equals 2d twin", ok,
         f"max |logit diff| {diff:.2e} (< 1e-10), {elapsed:.1f}s of 10s")


def test_analytic_gradients_match_central_differences(capsys):
    t0 = time.perf_counter()
    spec = NetSpec(in_channels=2, clip_len=4, input_size=8, blocks=[
        ConvLayer("conv1", 2, 3, (3, 3, 3), (1, 2, 2)),
        ConvLayer("conv2", 3, 4, (1, 3, 3), (1, 1, 1)),
        MixedBlock("mixed1", 4, b0=2, b1_reduce=2, b1=2, b2_reduce=1, b2=1, b3=1),
    ])
    # seeds pin an operating point with no pre-activation within the FD step
    # of a relu kink; a crossing would blow past the 1e-4 bound and fail loudly
    net = Network.init(spec, seed=5).cast(np.float64)
    x = np.random.default_rng(5).random((2, 2, 4, 8, 8))
    labels = np.array([1.0, 0.0])

    def loss():
        logits, _ = net.forward(x)
        return bce_with_logits(logits, labels)[0]

    logits, caches = net.forward(x, want_cache=True)
    _, dlogits = bce_with_logits(logits, labels)
    grads = net.backward(dlogits, caches)
    worst, worst_name = 0.0, ""
    for name in sorted(net.params):
        fd = numeric_grad(loss, net.params[name], h=1e-5)
        scale = max(np.abs(fd).max(), 1e-8)
        err = float(np.abs(grads[name] - fd).max() / scale)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.perf_counter() - t0
    ok = set(grads) == set(net.params) and worst < 1e-4 and elapsed < 60.0
    crit(capsys, "analytic gradients", ok,
         f"worst rel err {worst:.2e} at {worst_name} over {len(net.params)} "
         f"tensors (< 1e-4), {elapsed:.1f}s of 60s")


def test_conv3d_matches_the_naive_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x, kernel, bias, stride, padding, temporal_pad = random_conv_case(rng)
        y, _ = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad)
        want = conv3d_oracle(x, kernel, bias, stride, padding, temporal_pad)
        assert y.shape == want.shape
        worst = max(worst, float(np.abs(y - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    crit(capsys, "conv3d vs nested-loop oracle", ok,
         f"100 random shapes, max |diff| {worst:.2e} (< 1e-10), {elapsed:.1f}s of 30s")


def test_flow_on_a_known_shift_and_at_rest(capsys, rng):
    t0 = time.perf_counter()
    tex = smooth_texture(rng, 64, 64)
    shifted = np.roll(tex, 1, axis=1)  # truth: dx = +1, dy = 0
    flow = tvl1_flow(tex, shifted, TvL1Params()).flow
    inner = flow[7:-7, 7:-7]
    epe = float(np.sqrt((inner[:, :, 0] - 1.0) ** 2 + inner[:, :, 1] ** 2).mean())
    static = float(np.abs(tvl1_flow(tex, tex, TvL1Params()).flow).max())
    elapsed = time.perf_counter() - t0
    ok = epe < 0.3 and static < 0.05 and elapsed < 30.0
    crit(capsys, "tv-l1 one-pixel shift", ok,
         f"mean EPE {epe:.3f} px (< 0.3) on the central 80%, at-rest max "
         f"{static:.3f} px (< 0.05), {elapsed:.1f}s of 30s")


def test_smoothing_bounds_and_linking_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    bounded = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        x1 = rng.uniform(0, 50, n)
        y1 = rng.uniform(0, 50, n)
        boxes = [BBox(x1[i], y1[i], x1[i] + rng.uniform(1, 20), y1[i] + rng.uniform(1, 20))
                 for i in range(n)]
        track = Track(0, entries=list(enumerate(boxes)))
        L = int(rng.integers(1, 9))
        smooth_track(track, SmoothingConfig(window=L))
        raw = np.array([b.coords() for _, b in track.entries])
        sm = np.array([b.coords() for _, b in track.smoothed])
        for i in range(n):
            lo = raw[max(0, i - L + 1):i + 1].min(axis=0)
            hi = raw[max(0, i - L + 1):i + 1].max(axis=0)
            if not ((sm[i] >= lo - 1e-9).all() and (sm[i] <= hi + 1e-9).all()):
                bounded = False
        if L == 1 and not np.allclose(sm, raw, atol=1e-9):
            bounded = False

    ident = smooth_track(Track(0, entries=[(i, b) for i, b in
                                           enumerate([BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)])]),
                         SmoothingConfig(window=1))
    l1_identity = all(np.allclose(a.coords(), b.coords(), atol=1e-12)
                      for (_, a), (_, b) in zip(ident.entries, ident.smoothed))

    identity_frames, total_frames = 0, 0
    for seed in range(5):
        spec = SceneSpec(seed=seed, class_label=seed % 2, n_persons=2, n_frames=24,
                         width=160, height=120, video_id=f"pair_{seed}")
        _, poses, _ = generate_scene(spec)
        rois, per_frame = [], []
        for pf in poses:
            boxes = [upper_body_roi(p, frame_dims=(spec.width, spec.height))
                     for p in pf.persons]
            assert all(b is not None for b in boxes)
            rois.append(boxes)
            per_frame.append((pf.frame_index, list(boxes)))
        tracks = link_detections(per_frame)
        total_frames += spec.n_frames * 2
        if len(tracks) != 2:
            continue
        for t in tracks:
            owners = {pi for f, b in t.entries
                      for pi, rb in enumerate(rois[f]) if rb.coords() == b.coords()}
            if len(owners) == 1 and len(t.entries) == spec.n_frames:
                identity_frames += len(t.entries)
    elapsed = time.perf_counter() - t0
    ok = (bounded and l1_identity and identity_frames == total_frames
          and elapsed < 30.0)
    crit(capsys, "sma bounds and link identity", ok,
         f"1000 random tracks inside window extremes, window-1 identity, "
         f"{identity_frames}/{total_frames} two-person frames on the true "
         f"identity, {elapsed:.1f}s of 30s")


def test_metric_recount_and_fixtures(capsys):
    rng = np.random.default_rng(9)
    exact = True
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 200, size=4))
        if tp + fp + fn + tn == 0:
            continue
        m = metrics(ConfusionMatrix(tp, fp, fn, tn))
        exact &= (m.accuracy, m.precision, m.recall, m.f1) == metrics_oracle(tp, fp, fn, tn)
    sparse = metrics(ConfusionMatrix(tp=2, fp=0, fn=7, tn=6))
    table = metrics(ConfusionMatrix(tp=221, fp=39, fn=119, tn=100))
    ok = (exact and sparse.precision == 1.0 and round(sparse.recall, 4) == 0.2222
          and round(table.precision, 2) == 0.85 and round(table.recall, 2) == 0.65
          and f"{table.f1:.2f}" == "0.74")
    crit(capsys, "metric recount and fixtures", ok,
         f"1000 random matrices recounted exactly; tp=2,fp=0,fn=7,tn=6 -> "
         f"precision {sparse.precision} recall {sparse.recall:.4f}; "
         f"P 0.85 / R 0.65 -> F1 {table.f1:.2f}")


def test_file_formats_roundtrip(capsys, tmp_path):
    rng = np.random.default_rng(10)

    quant = rng.integers(0, 256, size=(3, 12, 16, 3)).astype(np.float32) / 255.0
    seq = FrameSequence([Frame(a) for a in quant], fps=12.5, video_id="v", date_tag="d3")
    frameio.save_sequence(seq, str(tmp_path / "rgb"))
    back = frameio.load_sequence(str(tmp_path / "rgb"))
    frames_ok = (back.fps == seq.fps and back.video_id == "v" and back.date_tag == "d3"
                 and all(np.array_equal(a.data, b.data)
                         for a, b in zip(seq.frames, back.frames)))

    flows = [Frame(rng.standard_normal((12, 16, 2)).astype(np.float32)) for _ in range(3)]
    fseq = FrameSequence(flows, fps=12.5, video_id="f", date_tag="d3")
    frameio.save_sequence(fseq, str(tmp_path / "flow"))
    fback = frameio.load_sequence(str(tmp_path / "flow"))
    flow_ok = all(np.array_equal(a.data, b.data) for a, b in zip(flows, fback.frames))

    net = Network.init(i3d_mini(in_channels=2, input_size=16, clip_len=4), seed=3)
    net.freeze_backbone()
    save_network(net, str(tmp_path / "net.swnet"))
    nback = load_network(str(tmp_path / "net.swnet"))
    net_ok = (nback.spec == net.spec and nback.frozen == net.frozen
              and set(nback.params) == set(net.params)
              and all(np.array_equal(nback.params[k], net.params[k]) for k in net.params))

    track = Track(4, entries=[(f, BBox(f + 0.125, 2.5, f + 10.0625, 20.75))
                              for f in range(6)])
    smooth_track(track, SmoothingConfig(window=3))
    tracking.save_tracks([track], str(tmp_path / "tracks.txt"))
    tback = tracking.load_tracks(str(tmp_path / "tracks.txt"))
    track_ok = (len(tback) == 1 and tback[0].track_id == 4
                and [(f, b.coords()) for f, b in tback[0].entries]
                == [(f, b.coords()) for f, b in track.entries]
                and [(f, b.coords()) for f, b in tback[0].smoothed]
                == [(f, b.coords()) for f, b in track.smoothed])

    records = [
        AnnotationRecord("vid_a", "d0", 0, 0, 31, 1, "rubbing_hands", False),
        AnnotationRecord("vid_b", "d1", 2, 4, 20, 0, "typing", True),
    ]
    save_annotations(records, str(tmp_path / "ann.csv"))
    ann_ok = load_annotations(str(tmp_path / "ann.csv")) == records

    ok = frames_ok and flow_ok and net_ok and track_ok and ann_ok
    crit(capsys, "file format roundtrips", ok,
         f"frames {frames_ok}, flow {flow_ok}, checkpoint {net_ok}, "
         f"tracks {track_ok}, annotations {ann_ok}")


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Default-config pipeline, gen through eval, timed stage by stage."""
    root = tmp_path_factory.mktemp("desk")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 0,
        "paths": {"dataset_dir": str(root / "ds"), "work_dir": str(root / "work"),
                  "checkpoint_dir": str(root / "ckpt"), "report_dir": str(root / "report")},
    }))
    timings = {}
    for name, argv in (("gen", ["gen"]), ("prepare", ["prepare"]), ("flow", ["flow"]),
                       ("train-rgb", ["train", "--stream", "rgb"]),
                       ("train-flow", ["train", "--stream", "flow"]),
                       ("eval", ["eval"])):
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--config", str(cfg_path)])
        timings[name] = time.perf_counter() - t0
        assert rc == 0, f"{name} exited with {rc}"

    report = json.loads((root / "report" / "report.json").read_text())
    text = (root / "report" / "report.txt").read_text()

    cfg = load_config(str(cfg_path))
    manifest = json.loads((root / "ds" / "dataset.json").read_text())
    entry = next(e for e in manifest["scenes"] if e["class"] == 1 and not e["synthetic"])
    seq = frameio.load_sequence(str(root / "ds" / entry["frames_dir"]))
    clip_dir = root / "probe_clip"
    frameio.save_sequence(FrameSequence(seq.frames[:16], fps=seq.fps,
                                        video_id="probe", date_tag="d"), str(clip_dir))
    (clip_dir / "keypoints.txt").write_text(
        (root / "ds" / entry["keypoints_file"]).read_text())
    infer = pipeline.infer_clip(cfg, str(clip_dir))

    return {"timings": timings, "report": report, "text": text, "infer": infer}


def test_desk_scale_run_budget_and_accuracy(desk_run, capsys):
    total = sum(desk_run["timings"].values())
    rows = desk_run["report"]["rows"]
    acc = rows["RGB"]["accuracy"] if rows.get("RGB") else None
    score, label = desk_run["infer"]
    stage_list = ", ".join(f"{k} {v:.0f}s" for k, v in desk_run["timings"].items())
    ok = (total <= 900.0
          and all(rows.get(k) is not None for k in ("RGB", "Flow", "RGB+Flow"))
          and acc is not None and acc >= 0.90
          and score > 0.5 and label == "rubbing_hands")
    crit(capsys, "desk-scale end-to-end", ok,
         f"{total:.0f}s of 900s ({stage_list}); RGB accuracy {acc} (>= 0.90); "
         f"all three rows present; held-out rubbing clip scored {score:.3f}")


def test_pretraining_at_least_matches_scratch(desk_run, capsys):
    comparison = {r["name"]: r["accuracy"]
                  for r in desk_run["report"]["metadata"].get("transfer_comparison", [])}
    ok = ({"pretrained", "scratch"} <= set(comparison)
          and comparison["pretrained"] >= comparison["scratch"]
          and "Head init" in desk_run["text"])
    crit(capsys, "pretrained head vs scratch", ok,
         f"pretrained {comparison.get('pretrained')} >= scratch "
         f"{comparison.get('scratch')}, paired rows rendered in the report")


def test_headline_numbers_carry_their_provenance(desk_run, capsys):
    # the benchmark ships its own generated scenes, so every published number
    # must be tied to the exact dataset and seed that produced it
    meta = desk_run["report"]["metadata"]
    ok = (len(meta.get("dataset_hash", "")) == 16
          and meta.get("seed") == 0
          and meta.get("eval_mode") in ("per-annotated-clip", "per-window")
          and meta.get("n_test_clips", 0) > 0
          and set(desk_run["report"]["rows"]) == {"RGB", "Flow", "RGB+Flow"})
    crit(capsys, "benchmark provenance", ok,
         f"dataset {meta.get('dataset_hash')}, seed {meta.get('seed')}, "
         f"{meta.get('n_test_clips')} test clips, mode {meta.get('eval_mode')}")
