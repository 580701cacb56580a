"""End-to-end orchestration behind the CLI subcommands.

Stages communicate only through files under the configured roots: the scene
manifest and frames from `gen`, tracks/annotations/splits from `prepare`,
per-scene flow directories from `flow`, SWNET checkpoints from `train`, and
the report bundle from `eval`.  Every stage is a pure function of
(files on disk, config, seed).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from . import (artifacts, checkpoint, clipset, frameio, layers, metrics, model, pose, synth,
               tracking, training, tvl1, workers)
from .clipset import CLIP_LEN, AnnotationRecord, AugmentConfig, SplitResult
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .metrics import ScoredClip


# --- path helpers ---------------------------------------------------------

def _frames_dir(cfg: PipelineConfig, entry: dict) -> str:
    return os.path.join(cfg.paths.dataset_dir, entry["frames_dir"])

def _keypoints_path(cfg: PipelineConfig, entry: dict) -> str:
    return os.path.join(cfg.paths.dataset_dir, entry["keypoints_file"])

def _flow_dir(cfg: PipelineConfig, video_id: str) -> str:
    return os.path.join(cfg.paths.work_dir, "flow", video_id)

def _tracks_path(cfg: PipelineConfig, video_id: str) -> str:
    return os.path.join(cfg.paths.work_dir, "tracks", f"{video_id}.txt")

def _corrections_path(cfg: PipelineConfig, video_id: str) -> str:
    return os.path.join(cfg.paths.work_dir, "corrections", f"{video_id}.txt")

def _annotations_path(cfg: PipelineConfig) -> str:
    return os.path.join(cfg.paths.work_dir, "annotations.csv")

def _splits_path(cfg: PipelineConfig) -> str:
    return os.path.join(cfg.paths.work_dir, "splits.json")

def _ckpt_path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.paths.checkpoint_dir, f"{name}.swnet")


# --- gen ------------------------------------------------------------------

def check_split_dates(gen: synth.DatasetConfig) -> None:
    """Refuse a dataset whose rubbing and other scenes span fewer dates than
    the date-disjoint split needs; each group numbers its dates from d00."""
    n = min(gen.n_dates, max(gen.n_rubbing, gen.n_other))
    if n < clipset.SPLIT_MIN_DATES:
        raise ConfigError(f"gen.n_dates {gen.n_dates} with gen.n_rubbing {gen.n_rubbing} and "
                          f"gen.n_other {gen.n_other} gives {n} non-synthetic dates; the split "
                          f"needs at least {clipset.SPLIT_MIN_DATES}")


def generate(cfg: PipelineConfig, force: bool = False) -> dict:
    out = cfg.paths.dataset_dir
    if os.path.isdir(out) and os.listdir(out):
        if not force:
            raise DataError(f"{out} already exists and is not empty; pass --force to overwrite")
        shutil.rmtree(out)
    return synth.generate_dataset(cfg.gen, out, cfg.seed)


# --- prepare --------------------------------------------------------------

@dataclass
class PrepareResult:
    records: list[AnnotationRecord]
    split: SplitResult
    table: str = ""


def _detections_for_scene(params: pose.RoiParams, poses: list[pose.PoseFrame],
                          frame_dims: tuple[int, int]):
    per_frame = []
    for pf in poses:
        boxes = []
        for person in pf.persons:
            box = pose.upper_body_roi(person, frame_dims, params)
            if box is not None:
                boxes.append(box)
        per_frame.append((pf.frame_index, boxes))
    return per_frame


def _resolve_track(tracks: list[tracking.Track], rec_start: int, rec_end: int,
                   video_id: str) -> int:
    """Track covering the most annotated frames; ties go to the lower id."""
    best_id, best_cov = None, 0
    for t in sorted(tracks, key=lambda t: t.track_id):
        cov = sum(1 for f in t.frame_indices() if rec_start <= f < rec_end)
        if cov > best_cov:
            best_id, best_cov = t.track_id, cov
    if best_id is None:
        raise DataError(f"{video_id}: no track covers annotated frames "
                        f"[{rec_start}, {rec_end})")
    return best_id


def prepare(cfg: PipelineConfig) -> PrepareResult:
    manifest = synth.load_manifest(cfg.paths.dataset_dir)
    records: list[AnnotationRecord] = []
    for entry, rec in zip(manifest["scenes"], synth.manifest_records(manifest)):
        video_id = entry["video_id"]
        kp_path = _keypoints_path(cfg, entry)
        if not os.path.isfile(kp_path):
            raise DataError(f"{video_id}: keypoints file not found: {kp_path}")
        meta = frameio.load_descriptor(_frames_dir(cfg, entry))
        poses = pose.load_poses(kp_path)
        per_frame = _detections_for_scene(cfg.roi, poses, (meta["width"], meta["height"]))
        tracks = tracking.link_detections(per_frame, cfg.link)
        corr_path = _corrections_path(cfg, video_id)
        if os.path.isfile(corr_path):
            tracks = tracking.correct_assignment(tracks, tracking.parse_corrections(corr_path))
        tracks = [tracking.smooth_track(t, cfg.link.smooth_window) for t in tracks]
        tracking.save_tracks(tracks, _tracks_path(cfg, video_id))
        track_id = _resolve_track(tracks, rec.start_frame, rec.end_frame, video_id)
        records.append(replace(rec, track_id=track_id))
    split = clipset.split_dataset(records, seed=cfg.seed)
    clipset.save_annotations(records, _annotations_path(cfg))
    split_doc = split.as_dict()
    split_doc["video_ids"] = {name: [records[i].video_id for i in getattr(split, name)]
                              for name in ("train", "val", "test")}
    with artifacts.publish(_splits_path(cfg)) as tmp, open(tmp, "w") as fh:
        json.dump(split_doc, fh, indent=1)
    table = render_stats(dataset_stats(records, split, cfg.clip))
    return PrepareResult(records=records, split=split, table=table)


def load_prepared(cfg: PipelineConfig) -> tuple[list[AnnotationRecord], SplitResult]:
    ann_path = _annotations_path(cfg)
    if not os.path.isfile(ann_path):
        raise DataError(f"annotations not found at {ann_path}; run prepare first")
    records = clipset.load_annotations(ann_path)
    path = _splits_path(cfg)
    doc = artifacts.read_json(path, DataError, f"splits not found at {path}; run prepare first")
    try:
        split = SplitResult(train=doc["train"], val=doc["val"], test=doc["test"],
                            seed=doc.get("seed", 0))
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: invalid splits file: {exc!r}") from None
    for name in ("train", "val", "test"):
        idxs = getattr(split, name)
        if not isinstance(idxs, list) or not all(type(i) is int and 0 <= i < len(records)
                                                 for i in idxs):
            raise DataError(f"{path}: split {name!r} must list record indices "
                            f"in range({len(records)})")
    listed = split.train + split.val + split.test
    if len(set(listed)) != len(listed):
        raise DataError(f"{path}: a record index is listed more than once across the splits")
    return records, split


# --- the Table-1-shaped statistics printout -------------------------------

_SPLIT_NAMES = ("Training", "Validation", "Testing")
_GROUP_NAMES = ("Hand Rubbing", "Other Actions", "Synthetic Rubbing")


def _group_of(rec: AnnotationRecord) -> int:
    if rec.synthetic:
        return 2
    return 0 if rec.label == 1 else 1


def dataset_stats(records: list[AnnotationRecord], split: SplitResult,
                  aug: AugmentConfig) -> dict:
    rows = {}
    for split_name, idxs in zip(_SPLIT_NAMES, (split.train, split.val, split.test)):
        cells = []
        for group in range(3):
            recs = [records[i] for i in idxs if _group_of(records[i]) == group]
            clips = len(recs)
            frames = sum(r.n_frames for r in recs)
            windows = sum(len(clipset.window_starts(r.n_frames, r.label, aug)) for r in recs)
            cells.append({"clips": clips, "frames": frames,
                          "windows": windows, "window_frames": windows * CLIP_LEN})
        rows[split_name] = cells
    return rows


def render_stats(rows: dict) -> str:
    def cell(n, f):
        return f"{n}({f})"

    lines = []
    head1 = f"{'':14}" + "".join(f"{g:<24}" for g in _GROUP_NAMES)
    head2 = f"{'Split':<14}" + "".join(f"{'w/o aug':<12}{'w/ aug':<12}" for _ in _GROUP_NAMES)
    lines.append(head1.rstrip())
    lines.append(head2.rstrip())
    for split_name in _SPLIT_NAMES:
        row = f"{split_name:<14}"
        for c in rows[split_name]:
            row += f"{cell(c['clips'], c['frames']):<12}{cell(c['windows'], c['window_frames']):<12}"
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def stats_from_manifest(cfg: PipelineConfig, manifest: dict) -> str:
    """The prospective per-split table for `gen` (same split rule as prepare)."""
    records = synth.manifest_records(manifest)
    split = clipset.split_dataset(records, seed=cfg.seed)
    return render_stats(dataset_stats(records, split, cfg.clip))


# --- flow -----------------------------------------------------------------

def _pair_ranges(n_pairs: int, n_ranges: int) -> list[tuple[int, int]]:
    """At most `n_ranges` contiguous, non-empty pair ranges [a, b) that
    cover pairs 0..n_pairs, of near-equal length."""
    k = min(n_ranges, n_pairs)
    bounds = [i * n_pairs // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _save_flow(cfg: PipelineConfig, out_dir: str, meta: dict, parts: list) -> None:
    """Write a scene's flow dir from the (u1, u2) of its ranges, in order."""
    flow = tvl1.flow_frames(np.concatenate([u1 for u1, _ in parts]),
                            np.concatenate([u2 for _, u2 in parts]), cfg.flow.max_flow)
    frameio.save_sequence(frameio.FrameSequence(flow, fps=float(meta["fps"]),
                                                video_id=meta["video_id"],
                                                date_tag=meta["date_tag"]), out_dir)


def compute_flow(cfg: PipelineConfig, force: bool = False) -> int:
    """TV-L1 flow for every scene; returns the number of scenes processed.

    The pairs are solved in the worker pool (`workers.run`), one process
    per CPU.  Each scene is cut into that many contiguous pair ranges
    (fewer when it has fewer pairs) that share their boundary frames, and
    the (scene, range) jobs are handed out in scene order.  A worker loads
    its range's frames a..b and solves pairs [a, b) with
    `tvl1.sequence_flow`.  Every pair is solved as if alone, so the flow
    equals, bit for bit, one `tvl1.sequence_flow` call.

    A scene is joined and written here once its last range is in, so scenes
    may be written out of order.  Its flow dir is published whole
    (`frameio.save_sequence`), so it exists only once complete, and a scene
    with a flow dir is skipped unless `force`.
    """
    manifest = synth.load_manifest(cfg.paths.dataset_dir)
    n_workers = workers.count()
    scenes = []
    for entry in manifest["scenes"]:
        out_dir = _flow_dir(cfg, entry["video_id"])
        if os.path.isdir(out_dir) and not force:
            continue
        frames_dir = _frames_dir(cfg, entry)
        meta, names = frameio.index_sequence(frames_dir)
        if len(names) < 2:
            raise DataError(f"{meta['video_id']}: need at least 2 frames for flow, "
                            f"got {len(names)}")
        scenes.append((frames_dir, out_dir, meta, _pair_ranges(len(names) - 1, n_workers)))
    parts = [[] for _ in scenes]  # (a, (u1, u2)) of each range received so far

    def solve(job):
        k, a, b = job
        seq = frameio.load_sequence(scenes[k][0], slice(a, b + 1))
        return tvl1.sequence_flow(seq.data, cfg.flow, f"{seq.video_id}: ")

    def done(job, uv):
        k, a, _ = job
        _, out_dir, meta, ranges = scenes[k]
        parts[k].append((a, uv))
        if len(parts[k]) == len(ranges):
            ordered, parts[k] = sorted(parts[k], key=lambda part: part[0]), None
            _save_flow(cfg, out_dir, meta, [uv for _, uv in ordered])

    workers.run(solve, [(k, a, b) for k, (*_, ranges) in enumerate(scenes) for a, b in ranges],
                lambda job: f"{scenes[job[0]][2]['video_id']} pairs {job[1]}-{job[2] - 1}", done)
    return len(scenes)


# --- clip iteration -------------------------------------------------------

def _scene_loader(cfg: PipelineConfig, stream: str):
    """A function rec -> the record's scene as a `stream` frame sequence.
    RGB frames come from the scene's `frames_dir` in the manifest, which is
    read here, once for every record the loader serves."""
    if stream == "flow":
        def load_flow(rec: AnnotationRecord) -> frameio.FrameSequence:
            flow_dir = _flow_dir(cfg, rec.video_id)
            if not os.path.isdir(flow_dir):
                raise DataError(f"{rec.video_id}: flow not computed at {flow_dir}; run flow first")
            return frameio.load_sequence(flow_dir)
        return load_flow
    dirs = {e["video_id"]: _frames_dir(cfg, e)
            for e in synth.load_manifest(cfg.paths.dataset_dir)["scenes"]}

    def load_rgb(rec: AnnotationRecord) -> frameio.FrameSequence:
        if rec.video_id not in dirs:
            raise DataError(f"{rec.video_id}: scene not in the dataset manifest")
        return frameio.load_sequence(dirs[rec.video_id])
    return load_rgb


def _track_for(cfg: PipelineConfig, rec: AnnotationRecord) -> tracking.Track:
    tracks = tracking.load_tracks(_tracks_path(cfg, rec.video_id))
    for t in tracks:
        if t.track_id == rec.track_id:
            return t
    raise DataError(f"{rec.video_id}: track {rec.track_id} not found in saved tracks")


def clip_id_for(rec: AnnotationRecord, start: int) -> str:
    return f"{rec.video_id}:{rec.track_id}:{start}"


def _window_starts(cfg: PipelineConfig, rec: AnnotationRecord) -> list[int]:
    return [rec.start_frame + rel
            for rel in clipset.window_starts(rec.n_frames, rec.label, cfg.clip)]


def _record_clips(cfg: PipelineConfig, rec: AnnotationRecord, load, mode: str,
                  starts: list[int], n_frames: int = CLIP_LEN):
    """Yield one record's clips (C, n_frames, S, S), one per start, its
    scene read by `load` (see `_scene_loader`) and its track once."""
    seq = load(rec)
    track = _track_for(cfg, rec)
    for start in starts:
        yield clipset.sample_clip(seq, track, start, cfg.clip, mode=mode, seed=cfg.seed,
                                  n_frames=n_frames)


# --- train ----------------------------------------------------------------

@dataclass
class TrainSummary:
    stream: str
    finetune_curve: list[float] = field(default_factory=list)
    scratch_curve: list[float] = field(default_factory=list)
    n_windows: int = 0


def _build_stills(cfg: PipelineConfig, recs: list[AnnotationRecord], load_rgb):
    xs, ys = [], []
    for rec in recs:
        picks = np.unique(np.linspace(rec.start_frame, rec.end_frame - 1,
                                      cfg.train.stills_per_scene).round().astype(int))
        xs += _record_clips(cfg, rec, load_rgb, "train", picks.tolist(), n_frames=1)
        ys += [rec.label] * len(picks)
    if not xs:
        raise DataError("no training scenes to build the still-image task from")
    return np.stack(xs), np.asarray(ys, dtype=np.float64)


def _twin_path(cfg: PipelineConfig) -> str:
    return _ckpt_path(cfg, "twin2d")


def _get_or_train_twin(cfg: PipelineConfig, recs: list[AnnotationRecord],
                       load_rgb) -> model.Network:
    path = _twin_path(cfg)
    if os.path.isfile(path):
        return checkpoint.load_network(path)
    rgb_spec = model.i3d_mini(in_channels=3, input_size=cfg.clip.input_size)
    stills, labels = _build_stills(cfg, recs, load_rgb)
    pre_cfg = replace(cfg.train, epochs=cfg.train.pretrain_epochs)
    twin = training.pretrain_twin(rgb_spec, stills, labels, pre_cfg, cfg.seed)
    checkpoint.save_network(twin, path)
    return twin


def train_stream(cfg: PipelineConfig, stream: str) -> TrainSummary:
    """Fit the head of one stream on its training windows.

    The 2D twin (pretrained on stills, or loaded) is inflated under a fresh
    head with a frozen backbone, and the head trains on cached backbone
    features.  For rgb, a random never-trained backbone (`rgb_scratch`) is
    the paired control; each window is sampled once and its batch goes
    through both backbones."""
    if stream not in ("rgb", "flow"):
        raise DataError(f"stream must be rgb or flow, got {stream!r}")
    records, split = load_prepared(cfg)
    train_recs = [records[i] for i in split.train]
    if not train_recs:
        raise DataError("training split is empty")
    summary = TrainSummary(stream=stream)

    load_rgb = _scene_loader(cfg, "rgb")
    twin = _get_or_train_twin(cfg, train_recs, load_rgb)
    in_ch = 3 if stream == "rgb" else 2
    spec = model.i3d_mini(in_channels=in_ch, input_size=cfg.clip.input_size)
    head_cfg = replace(cfg.train, lr=cfg.train.head_lr)

    net = training.inflate_and_freeze(twin, spec, head_seed=cfg.seed + 1,
                                      flow=(stream == "flow"))
    nets = [net]
    if stream == "rgb":
        nets.append(training.scratch_network(spec, cfg.seed, head_seed=cfg.seed + 1))
    load = load_rgb if stream == "rgb" else _scene_loader(cfg, "flow")
    clips = ((x, rec.label) for rec in train_recs
             for x in _record_clips(cfg, rec, load, "train", _window_starts(cfg, rec)))
    feats, labels = training.extract_features(nets, clips)
    summary.n_windows = len(labels)
    curves = [training.train_head_on_features(n, f, labels, head_cfg, cfg.seed)
              for n, f in zip(nets, feats)]
    summary.finetune_curve = curves[0]
    checkpoint.save_network(net, _ckpt_path(cfg, stream))
    if stream == "rgb":
        summary.scratch_curve = curves[1]
        checkpoint.save_network(nets[1], _ckpt_path(cfg, "rgb_scratch"))
    return summary


# --- eval -----------------------------------------------------------------

def _eval_starts(cfg: PipelineConfig, rec: AnnotationRecord) -> list[int]:
    if rec.n_frames < CLIP_LEN:
        raise DataError(f"{rec.video_id}: too short for a start-frame window")
    if cfg.eval.mode == "per-annotated-clip":
        return [rec.start_frame]
    return _window_starts(cfg, rec)


def _test_scores(cfg: PipelineConfig, nets: dict[str, model.Network],
                 recs: list[AnnotationRecord]) -> dict[str, list[float]]:
    """Each net's score per record (see `evaluate`): its window scores
    averaged, from one head product over the record's feature rows."""
    scores = {name: [] for name in nets}
    for stream, names in (("rgb", ("rgb", "rgb_scratch")), ("flow", ("flow",))):
        names = [name for name in names if name in nets]
        if not names:
            continue
        load = _scene_loader(cfg, stream)
        for rec in recs:
            clips = ((x, rec.label)
                     for x in _record_clips(cfg, rec, load, "eval", _eval_starts(cfg, rec)))
            feats, _ = training.extract_features([nets[name] for name in names], clips)
            for name, f in zip(names, feats):
                scores[name].append(metrics.window_average(layers.sigmoid(nets[name].head(f))))
    return scores


def _dataset_hash(cfg: PipelineConfig) -> str:
    h = hashlib.sha256()
    for path in (_annotations_path(cfg), _splits_path(cfg)):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


@dataclass
class EvalResult:
    report: metrics.AblationReport
    clips: list[ScoredClip]
    warnings: list[str] = field(default_factory=list)


def evaluate(cfg: PipelineConfig) -> EvalResult:
    """Score the test split with each stream checkpoint found (rgb_scratch
    only beside rgb) and write the report bundle.  Each stream makes one
    pass: a record's scene and track are read once and each eval window is
    sampled once for every net of the stream, so rgb_scratch scores rgb's clips."""
    records, split = load_prepared(cfg)
    test_recs = [records[i] for i in split.test]
    if not test_recs:
        raise DataError("test split is empty")
    nets = {}
    for name in ("rgb", "flow", "rgb_scratch"):
        path = _ckpt_path(cfg, name)
        if os.path.isfile(path) and (name != "rgb_scratch" or "rgb" in nets):
            nets[name] = checkpoint.load_network(path)
    if not nets:
        raise DataError(f"no stream checkpoints found: rgb ({_ckpt_path(cfg, 'rgb')}), "
                        f"flow ({_ckpt_path(cfg, 'flow')})")
    warnings = [f"{s}: checkpoint missing, row marked absent"
                for s in ("rgb", "flow") if s not in nets]

    scores = _test_scores(cfg, nets, test_recs)
    absent = [None] * len(test_recs)
    clips = [ScoredClip(clip_id=clip_id_for(rec, rec.start_frame), label=rec.label,
                        score_rgb=rgb, score_flow=flow)
             for rec, rgb, flow in zip(test_recs, scores.get("rgb", absent),
                                       scores.get("flow", absent))]

    metadata = {
        "dataset_hash": _dataset_hash(cfg),
        "seed": cfg.seed,
        "eval_mode": cfg.eval.mode,
        "threshold": cfg.eval.threshold,
        "n_test_clips": len(test_recs),
    }
    if "rgb_scratch" in nets:
        rows = []
        for name, vals in (("pretrained", scores["rgb"]), ("scratch", scores["rgb_scratch"])):
            sc = [ScoredClip(c.clip_id, c.label, score_rgb=v)
                  for c, v in zip(clips, vals)]
            cm = metrics.confusion_for(sc, "RGB", cfg.eval.threshold)
            rows.append({"name": name, "accuracy": metrics.metrics(cm).accuracy})
        metadata["transfer_comparison"] = rows

    report = metrics.ablation_run(clips, metadata, cfg.eval.threshold)
    metrics.save_report(report, cfg.paths.report_dir, clips, cfg.eval.threshold)
    return EvalResult(report=report, clips=clips, warnings=warnings)


# --- infer ----------------------------------------------------------------

def infer_clip(cfg: PipelineConfig, clip_dir: str) -> tuple[float, str]:
    """Score one 16-frame clip directory with the RGB stream.

    A keypoints.txt beside the frames gives the same upper-body crop the
    training pipeline uses; without one the full frame is scored, which only
    works if the subject fills it.
    """
    seq = frameio.load_sequence(clip_dir)
    if len(seq) != CLIP_LEN:
        raise DataError(f"{clip_dir}: expected a {CLIP_LEN}-frame clip directory, "
                        f"found {len(seq)} frames")
    if seq.channels != 3:
        raise DataError(f"{clip_dir}: the rgb stream scores 3-channel frames, "
                        f"found {seq.channels}")
    path = _ckpt_path(cfg, "rgb")
    if not os.path.isfile(path):
        raise DataError(f"rgb: checkpoint not found at {path}; run train --stream rgb first")
    net = checkpoint.load_network(path)
    box = None
    kp_path = os.path.join(clip_dir, "keypoints.txt")
    if os.path.isfile(kp_path):
        poses = pose.load_poses(kp_path)
        if poses and poses[0].persons:
            box = pose.upper_body_roi(poses[0].persons[0], (seq.width, seq.height), cfg.roi)
    x = clipset.crop_window(seq, box, 0, CLIP_LEN, cfg.clip.input_size)
    score = float(net.score(x[None])[0])
    label = "rubbing_hands" if score >= cfg.eval.threshold else "other"
    return score, label
