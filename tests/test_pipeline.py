"""Pipeline stages wired to a miniature generated dataset."""

import copy
import multiprocessing
import os
import re
import shutil
import signal
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hhmon import (checkpoint, cli, clipset, config, frameio, metrics, model, pipeline,
                   tracking, training)
from hhmon.clipset import CLIP_LEN, AnnotationRecord, AugmentConfig, split_dataset, window_starts
from hhmon.config import PipelineConfig
from hhmon.errors import DataError
from hhmon.frameio import FrameSequence
from hhmon.pose import BBox

from helpers import eval_scores_oracle, tree_bytes


def tiny_cfg(tmp_path):
    cfg = PipelineConfig()
    cfg.seed = 0
    cfg.paths.dataset_dir = str(tmp_path / "ds")
    cfg.paths.work_dir = str(tmp_path / "work")
    cfg.paths.checkpoint_dir = str(tmp_path / "ckpt")
    cfg.paths.report_dir = str(tmp_path / "report")
    cfg.gen.n_rubbing = 3
    cfg.gen.n_other = 3
    cfg.gen.n_synthetic_rubbing = 1
    cfg.gen.n_dates = 3
    cfg.gen.n_synthetic_dates = 1
    cfg.gen.width = 48
    cfg.gen.height = 36
    cfg.gen.n_frames_min = 18
    cfg.gen.n_frames_max = 20
    cfg.clip.input_size = 24
    return cfg


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """One generated-and-prepared workspace shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("pipe")
    cfg = tiny_cfg(tmp_path)
    manifest = pipeline.generate(cfg)
    result = pipeline.prepare(cfg)
    return cfg, manifest, result


def test_generate_writes_scenes_and_guards_reruns(tmp_path):
    cfg = tiny_cfg(tmp_path)
    manifest = pipeline.generate(cfg)
    assert len(manifest["scenes"]) == 7
    with pytest.raises(DataError, match="--force"):
        pipeline.generate(cfg)
    again = pipeline.generate(cfg, force=True)
    assert again == manifest


def test_prepare_builds_records_tracks_and_splits(prepared):
    cfg, manifest, result = prepared
    assert len(result.records) == 7
    for entry in manifest["scenes"]:
        assert os.path.isfile(pipeline.artifact_path(cfg, "tracks", entry["video_id"]))
    path = pipeline.artifact_path(cfg, "annotations")
    assert clipset.load_annotations(path) == result.records
    assert all(line.count(",") == 8 for line in open(path))

    dates = [{r.date_tag for r in result.records if r.split == split}
             for split in clipset.SPLITS]
    assert all(dates)
    assert not (dates[0] & dates[1]) and not (dates[1] & dates[2]) and not (dates[0] & dates[2])
    syn = [r for r in result.records if r.synthetic]
    assert syn and all(r.split == "train" for r in syn)

    for header in ("Training", "Validation", "Testing", "Hand Rubbing",
                   "Other Actions", "Synthetic Rubbing"):
        assert header in result.table


def test_prepare_is_idempotent(prepared):
    cfg, _, first = prepared
    before = open(pipeline.artifact_path(cfg, "annotations")).read()
    second = pipeline.prepare(cfg)
    assert open(pipeline.artifact_path(cfg, "annotations")).read() == before
    assert second.records == first.records


def test_load_prepared_roundtrip(prepared):
    cfg, _, result = prepared
    for split in clipset.SPLITS:
        assert pipeline.load_prepared(cfg, split) == [r for r in result.records
                                                      if r.split == split]


def test_load_prepared_requires_prepare(tmp_path):
    cfg = tiny_cfg(tmp_path)
    with pytest.raises(DataError, match="run prepare first"):
        pipeline.load_prepared(cfg, "train")


def test_every_missing_artifact_names_the_command_that_writes_it(tmp_path, rng):
    cfg = tiny_cfg(tmp_path)
    rec = AnnotationRecord("lost", "d00", 0, 0, CLIP_LEN, 1)
    clip_dir = str(tmp_path / "clip")
    frames = rng.random((CLIP_LEN, 20, 20, 3)).astype(np.float32)
    frameio.save_sequence(FrameSequence(frames, video_id="c", date_tag="d"), clip_dir)

    for read, kind, name, command in (
            (lambda: pipeline.load_prepared(cfg, "train"), "annotations", "", "prepare"),
            (lambda: pipeline._track_for(cfg, rec), "tracks", "lost", "prepare"),
            (lambda: pipeline._scene_loader(cfg, "flow")(rec), "flow dir", "lost", "flow"),
            (lambda: pipeline.infer_clip(cfg, clip_dir), "checkpoint", "rgb",
             "train --stream rgb")):
        path = pipeline.artifact_path(cfg, kind, name)
        with pytest.raises(DataError, match=f"^{kind} not found at {re.escape(path)}; "
                                            f"run {command} first$"):
            read()


def test_missing_keypoints_is_reported_by_video(tmp_path):
    cfg = tiny_cfg(tmp_path)
    manifest = pipeline.generate(cfg)
    victim = manifest["scenes"][2]
    os.remove(os.path.join(cfg.paths.dataset_dir, victim["keypoints_file"]))
    with pytest.raises(DataError, match=f"{victim['video_id']}: keypoints file not found"):
        pipeline.prepare(cfg)


def test_record_clips_counts_and_layout(prepared):
    cfg, _, result = prepared
    recs = [r for r in result.records if r.split == "train"][:4]
    load = pipeline._scene_loader(cfg, "rgb")
    for r in recs:
        starts = pipeline._window_starts(cfg, r)
        assert starts == [r.start_frame + s for s in window_starts(r.n_frames, r.label, cfg.clip)]
        got = list(pipeline._record_clips(cfg, r, load, "eval", starts))
        assert len(got) == len(starts) > 0
        assert all(x.shape == (3, 16, 24, 24) and x.dtype == np.float32 for x in got)
        track = pipeline._track_for(cfg, r)
        want = clipset.sample_clip(load(r), track, starts[-1], cfg.clip, mode="eval",
                                   seed=cfg.seed)
        assert np.array_equal(got[-1], want)
    stills = list(pipeline._record_clips(cfg, recs[0], load, "train", [0, 3], n_frames=1))
    assert [x.shape for x in stills] == [(3, 1, 24, 24)] * 2


def test_compute_flow_solves_every_scene_on_every_run(prepared):
    cfg, manifest, _ = prepared
    done = pipeline.compute_flow(cfg)
    assert done == 7
    vid = manifest["scenes"][0]["video_id"]
    flow_dir = pipeline.artifact_path(cfg, "flow dir", vid)
    seq = frameio.load_sequence(flow_dir)
    n_frames = manifest["scenes"][0]["end_frame"]
    assert len(seq) == n_frames
    assert seq.channels == 2
    first = flow_bytes(cfg)
    assert pipeline.compute_flow(cfg) == 7
    assert flow_bytes(cfg) == first


def test_compute_flow_needs_two_frames_per_scene(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    manifest = pipeline.generate(cfg)
    entry = manifest["scenes"][1]
    frames_dir = os.path.join(cfg.paths.dataset_dir, entry["frames_dir"])
    for name in os.listdir(frames_dir):
        if name.startswith("frame_") and int(name[6:12]) >= 1:
            os.remove(os.path.join(frames_dir, name))
    monkeypatch.setattr(os, "fork", None)  # refused before any worker starts
    with pytest.raises(DataError, match=f"{entry['video_id']}: need at least 2 frames "
                                        "for flow, got 1"):
        pipeline.compute_flow(cfg)
    assert not os.path.exists(os.path.join(cfg.paths.work_dir, "flow"))


def flow_bytes(cfg):
    return tree_bytes(os.path.join(cfg.paths.work_dir, "flow"))


def test_flow_killed_mid_scene_is_recomputed_on_rerun(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "clean")
    pipeline.generate(cfg)
    pipeline.prepare(cfg)
    pipeline.compute_flow(cfg)
    clean = flow_bytes(cfg)

    cfg = tiny_cfg(tmp_path / "killed")
    pipeline.generate(cfg)
    pipeline.prepare(cfg)
    write = frameio.write_flo2
    n_frames = sum(1 for name in clean if name.endswith(".flo2"))
    k = n_frames // 2  # in the middle of a scene, not on its boundary
    calls = []

    def dying_write(flow, path):
        calls.append(path)
        if len(calls) > k:
            raise KeyboardInterrupt("killed")
        write(flow, path)

    monkeypatch.setattr(frameio, "write_flo2", dying_write)
    with pytest.raises(KeyboardInterrupt):
        pipeline.compute_flow(cfg)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(frameio, "write_flo2", write)
    partial = flow_bytes(cfg)
    assert not any(".partial" in name for name in partial)
    done = {name.split(os.sep)[0] for name in partial if ".partial" not in name}
    assert 0 < len(done) < 7
    # a run killed outright leaves its temp behind; the rerun clears it
    todo = sorted({name.split(os.sep)[0] for name in clean} - done)[0]
    stale = pipeline.artifact_path(cfg, "flow dir", todo) + ".partial"
    os.makedirs(stale)
    with open(os.path.join(stale, "junk"), "w") as fh:
        fh.write("junk")
    # the rerun solves the finished scenes too: no dir from before the kill survives
    for vid in done:
        with open(os.path.join(pipeline.artifact_path(cfg, "flow dir", vid), "marker"), "w"):
            pass
    assert pipeline.compute_flow(cfg) == 7
    assert flow_bytes(cfg) == clean
    scenes = {name.split(os.sep)[0] for name in clean}
    assert set(os.listdir(os.path.join(cfg.paths.work_dir, "flow"))) == scenes


def test_gen_killed_mid_scene_leaves_each_frames_dir_whole_or_absent(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "clean")
    pipeline.generate(cfg)
    clean = tree_bytes(cfg.paths.dataset_dir)

    cfg = tiny_cfg(tmp_path / "killed")
    write = frameio.write_ppm
    parent = os.getpid()
    # oth_000 is the fourth scene, so on one or two workers at least two
    # scenes are written before its job is handed out
    mid_scene = os.path.join("oth_000", "frames.partial", "frame_000009.ppm")

    def interrupting_write(image, path):
        # the worker writing oth_000 presses Ctrl-C on gen halfway through
        # the scene and waits there, inside the publish of its frames dir,
        # until gen terminates it
        if path.endswith(mid_scene):
            os.kill(parent, signal.SIGINT)
            time.sleep(60)
        write(image, path)

    monkeypatch.setattr(frameio, "write_ppm", interrupting_write)  # before the pool forks
    with pytest.raises(KeyboardInterrupt):
        pipeline.generate(cfg)
    assert multiprocessing.active_children() == []
    left = tree_bytes(cfg.paths.dataset_dir)
    assert not any(".partial" in name for name in left)
    scenes = os.listdir(os.path.join(cfg.paths.dataset_dir, "scenes"))
    whole = [v for v in scenes if os.path.isdir(os.path.join(cfg.paths.dataset_dir, "scenes",
                                                              v, "frames"))]
    assert 0 < len(whole) < 7
    for name, data in left.items():
        assert clean[name] == data
    for vid in whole:
        frames = os.path.join("scenes", vid, "frames") + os.sep
        assert ({n for n in left if n.startswith(frames)}
                == {n for n in clean if n.startswith(frames)})


def test_train_rgb_samples_each_window_once(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    cfg.train = replace(cfg.train, pretrain_epochs=2, epochs=2, stills_per_scene=2)
    pipeline.generate(cfg)
    pipeline.prepare(cfg)
    train_recs = pipeline.load_prepared(cfg, "train")
    sampled = []
    original = clipset.sample_clip

    def counting(seq, track, start, *args, **kwargs):
        if kwargs.get("n_frames", CLIP_LEN) == CLIP_LEN:
            sampled.append((seq.video_id, start))
        return original(seq, track, start, *args, **kwargs)

    monkeypatch.setattr(clipset, "sample_clip", counting)
    summary = pipeline.train_stream(cfg, "rgb")
    monkeypatch.undo()
    assert summary.n_windows > 0
    assert len(sampled) == len(set(sampled)) == summary.n_windows

    # the two-pass route: inflated backbone, then the scratch control, each
    # on its own pass over the windows, sampled here without the pipeline
    spec = model.i3d_mini(in_channels=3, input_size=cfg.clip.input_size)
    head_cfg = replace(cfg.train, lr=cfg.train.head_lr)
    twin = checkpoint.load_network(pipeline.artifact_path(cfg, "checkpoint", "twin2d"))
    for name, net in (("rgb", training.inflate_and_freeze(twin, spec, head_seed=cfg.seed + 1)),
                      ("rgb_scratch", training.scratch_network(spec, cfg.seed, cfg.seed + 1))):
        load = pipeline._scene_loader(cfg, "rgb")
        windows = ((clipset.sample_clip(load(r), pipeline._track_for(cfg, r), r.start_frame + s,
                                        cfg.clip, mode="train", seed=cfg.seed), r.label)
                   for r in train_recs for s in window_starts(r.n_frames, r.label, cfg.clip))
        (feats,), labels = training.extract_features([net], windows)
        training.train_head_on_features(net, feats, labels, head_cfg, cfg.seed)
        saved = checkpoint.load_network(pipeline.artifact_path(cfg, "checkpoint", name))
        for key in ("head.w", "head.b"):
            assert np.array_equal(saved.params[key], net.params[key]), (name, key)


def test_evaluate_requires_some_checkpoint(prepared):
    cfg, _, _ = prepared
    if os.path.isfile(pipeline.artifact_path(cfg, "checkpoint", "rgb")):
        pytest.skip("a later test already wrote a checkpoint")
    with pytest.raises(DataError, match="no stream checkpoints"):
        pipeline.evaluate(cfg)


def test_evaluate_with_rgb_only_marks_flow_absent(prepared):
    cfg, _, _ = prepared
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, pipeline.artifact_path(cfg, "checkpoint", "rgb"))
    result = pipeline.evaluate(cfg)
    assert result.warnings == ["flow: checkpoint missing, row marked absent"]
    assert result.report.rows["RGB"] is not None
    assert result.report.rows["Flow"] is None
    assert result.report.rows["RGB+Flow"] is None
    assert all(c.score_flow is None for c in result.clips)
    meta = result.report.metadata
    assert len(meta["dataset_hash"]) == 16
    assert meta["n_test_clips"] == len(result.clips) > 0
    assert os.path.isfile(os.path.join(cfg.paths.report_dir, "report.txt"))
    assert os.path.isfile(os.path.join(cfg.paths.report_dir, "scores.log"))


def test_infer_needs_a_trained_checkpoint(tmp_path, rng):
    cfg = tiny_cfg(tmp_path)
    clip_dir = tmp_path / "clip"
    frames = rng.random((16, 20, 20, 3)).astype(np.float32)
    frameio.save_sequence(FrameSequence(frames, video_id="c", date_tag="d"), str(clip_dir))
    with pytest.raises(DataError, match="run train --stream rgb first"):
        pipeline.infer_clip(cfg, str(clip_dir))


def test_infer_validates_the_frame_count(prepared, tmp_path, rng):
    cfg, _, _ = prepared
    clip_dir = tmp_path / "short"
    frames = rng.random((5, 20, 20, 3)).astype(np.float32)
    frameio.save_sequence(FrameSequence(frames, video_id="c", date_tag="d"), str(clip_dir))
    with pytest.raises(DataError, match="expected a 16-frame clip"):
        pipeline.infer_clip(cfg, str(clip_dir))


def test_infer_scores_a_scene_prefix(prepared, tmp_path):
    cfg, manifest, _ = prepared
    entry = manifest["scenes"][0]
    seq = frameio.load_sequence(os.path.join(cfg.paths.dataset_dir, entry["frames_dir"]))
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(seq.data[:16], fps=seq.fps,
                                        video_id="probe", date_tag="d"), str(clip_dir))
    kp_src = os.path.join(cfg.paths.dataset_dir, entry["keypoints_file"])
    (clip_dir / "keypoints.txt").write_text(open(kp_src).read())
    score, label = pipeline.infer_clip(cfg, str(clip_dir))
    assert 0.0 < score < 1.0
    assert label in ("rubbing_hands", "other")


def rec(vid, date, n_frames, label, synthetic=False):
    return AnnotationRecord(video_id=vid, date_tag=date, track_id=0, start_frame=0,
                            end_frame=n_frames, label=label, synthetic=synthetic)


def test_dataset_stats_recount():
    records = [rec("a", "d0", 31, 1), rec("b", "d1", 24, 0),
               rec("c", "d2", 40, 1), rec("d", "d0", 20, 0),
               rec("s", "s0", 25, 1, synthetic=True)]
    records = split_dataset(records, seed=0)
    aug = AugmentConfig()
    rows = pipeline.dataset_stats(records, aug)
    assert set(rows) == {"Training", "Validation", "Testing"}
    total_windows = sum(c["windows"] for cells in rows.values() for c in cells)
    want = sum(len(window_starts(r.n_frames, r.label, aug)) for r in records)
    assert total_windows == want
    for cells in rows.values():
        for c in cells:
            assert c["window_frames"] == 16 * c["windows"]
    text = pipeline.render_stats(rows)
    assert text.count("(") >= 18  # every cell prints count(frames)


@pytest.fixture(scope="module")
def three_nets(prepared, tmp_path_factory):
    """A copy of the prepared workspace with flow, and rgb, flow and
    rgb_scratch checkpoints: two backbones inflated from a random twin and a
    random control, each under its own head."""
    cfg = copy.deepcopy(prepared[0])
    tmp = tmp_path_factory.mktemp("three-nets")
    shutil.copytree(cfg.paths.work_dir, tmp / "work")
    cfg.paths.work_dir = str(tmp / "work")
    cfg.paths.checkpoint_dir = str(tmp / "ckpt")
    cfg.paths.report_dir = str(tmp / "report")
    pipeline.compute_flow(cfg)
    spec = model.i3d_mini(in_channels=3, input_size=cfg.clip.input_size)
    flow_spec = model.i3d_mini(in_channels=2, input_size=cfg.clip.input_size)
    twin = model.Network.init(model.collapse_temporal(spec), seed=5)
    for name, net in (("rgb", training.inflate_and_freeze(twin, spec, head_seed=6)),
                      ("flow", training.inflate_and_freeze(twin, flow_spec, 7, flow=True)),
                      ("rgb_scratch", training.scratch_network(spec, seed=8, head_seed=9))):
        checkpoint.save_network(net, pipeline.artifact_path(cfg, "checkpoint", name))
    return cfg


@pytest.mark.parametrize("mode", ["per-annotated-clip"])
def test_eval_scores_equal_each_net_on_its_own_pass_bitwise(three_nets, mode):
    # eval's one protocol, written to report.json as its provenance
    cfg = three_nets
    test_recs = pipeline.load_prepared(cfg, "test")
    nets = {name: checkpoint.load_network(pipeline.artifact_path(cfg, "checkpoint", name))
            for name in ("rgb", "flow", "rgb_scratch")}
    want = {name: eval_scores_oracle(cfg, net, test_recs, "flow" if name == "flow" else "rgb")
            for name, net in nets.items()}
    assert pipeline._test_scores(cfg, nets, test_recs) == want
    result = pipeline.evaluate(cfg)
    assert [c.score_rgb for c in result.clips] == want["rgb"]
    assert [c.score_flow for c in result.clips] == want["flow"]
    assert result.report.metadata["eval_mode"] == mode
    rows = result.report.metadata["transfer_comparison"]
    for row, name in zip(rows, ("rgb", "rgb_scratch")):
        scored = [metrics.ScoredClip("c", r.label, score_rgb=v)
                  for r, v in zip(test_recs, want[name])]
        cm = metrics.confusion_for(scored, "RGB", cfg.eval.threshold)
        assert row["accuracy"] == metrics.metrics(cm).accuracy


@pytest.mark.parametrize("name", ["rgb", "rgb_scratch", "flow"])
def test_eval_scores_each_start_frame_clip_as_infer_does(three_nets, monkeypatch, name):
    # one clip per record, from its start frame, through `Network.score` as
    # a one-clip batch: the call `infer_clip` makes
    cfg = three_nets
    net = checkpoint.load_network(pipeline.artifact_path(cfg, "checkpoint", name))
    load = pipeline._scene_loader(cfg, "flow" if name == "flow" else "rgb")
    recs = pipeline.load_prepared(cfg, "test")
    starts = []

    def recording(seq, track, start, *args, _original=clipset.sample_clip, **kwargs):
        starts.append(start)
        return _original(seq, track, start, *args, **kwargs)
    monkeypatch.setattr(clipset, "sample_clip", recording)
    scores = pipeline._test_scores(cfg, {name: net}, recs)[name]
    assert starts == [rec.start_frame for rec in recs]
    assert len(scores) == len(recs)
    for rec, score in zip(recs, scores):
        [x] = pipeline._record_clips(cfg, rec, load, "eval", [rec.start_frame])
        assert type(score) is float
        assert score == float(net.score(x[None])[0])


def test_eval_reads_and_samples_each_test_record_once_per_stream(three_nets, monkeypatch):
    # rgb and rgb_scratch share the RGB pass; each net on its own pass made
    # three reads, parses and crops per record
    cfg = three_nets
    calls = Counter()
    for module, name in ((clipset, "sample_clip"), (frameio, "load_sequence"),
                         (tracking, "load_tracks")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    result = pipeline.evaluate(cfg)
    assert "transfer_comparison" in result.report.metadata
    n = len(result.clips)
    assert calls == {"sample_clip": 2 * n, "load_sequence": 2 * n, "load_tracks": 2 * n}


def test_eval_names_a_test_record_too_short_for_a_clip(three_nets, tmp_path, capsys):
    cfg = copy.deepcopy(three_nets)
    shutil.copytree(cfg.paths.work_dir, tmp_path / "work")
    cfg.paths.work_dir = str(tmp_path / "work")
    cfg.paths.report_dir = str(tmp_path / "report")
    annotations = pipeline.artifact_path(cfg, "annotations")
    records = clipset.load_annotations(annotations)
    last = max(i for i, r in enumerate(records) if r.split == "test")
    victim = records[last]
    records[last] = replace(victim, end_frame=victim.start_frame + 10)
    clipset.save_annotations(records, annotations)
    path = tmp_path / "cfg.json"
    path.write_text(config.dump_config(cfg))
    assert cli.main(["eval", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (f"error: {victim.video_id}: too short for a "
                                       f"start-frame window\n")


def test_resolve_track_prefers_coverage():
    short = tracking.Track(0, entries=[(f, BBox(0, 0, 5, 5)) for f in range(4)])
    long = tracking.Track(1, entries=[(f, BBox(0, 0, 5, 5)) for f in range(20)])
    assert pipeline._resolve_track([short, long], 0, 20, "v") == 1
    assert pipeline._resolve_track([short, long], 0, 4, "v") == 0  # tie, lower id
    with pytest.raises(DataError, match="no track covers"):
        pipeline._resolve_track([short], 10, 20, "v")


@pytest.mark.parametrize("stream", ["rgb", "flow"])
def test_eval_refuses_a_short_test_record_before_reading_its_scene(prepared, monkeypatch,
                                                                  stream):
    cfg, _, _ = prepared
    monkeypatch.setattr(frameio, "load_sequence",
                        lambda *args: pytest.fail("the scene was read"))
    net = model.Network.init(model.i3d_mini(in_channels=3 if stream == "rgb" else 2,
                                            input_size=cfg.clip.input_size), seed=0)
    with pytest.raises(DataError, match="^v: too short for a start-frame window$"):
        pipeline._test_scores(cfg, {stream: net}, [rec("v", "d0", CLIP_LEN - 1, 1)])


def test_clip_id_format():
    record = AnnotationRecord(video_id="rub_001", date_tag="d0", track_id=3,
                              start_frame=5, end_frame=25, label=1)
    assert pipeline.clip_id_for(record, 7) == "rub_001:3:7"
