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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import checkpoint, clipset, frameio, metrics, model, pose, synth, tracking, training, tvl1
from .clipset import CLIP_LEN, AnnotationRecord, AugmentConfig, SplitResult
from .config import PipelineConfig
from .errors import DataError
from .metrics import ScoredClip
from .tracking import SmoothingConfig


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

def generate(cfg: PipelineConfig, force: bool = False) -> dict:
    out = cfg.paths.dataset_dir
    if os.path.isdir(out) and os.listdir(out):
        if not force:
            raise DataError(f"{out} already exists and is not empty; pass --force to overwrite")
        shutil.rmtree(out)
    dcfg = synth.DatasetConfig(seed=cfg.seed, out_dir=out, **asdict(cfg.gen))
    return synth.generate_dataset(dcfg)


# --- prepare --------------------------------------------------------------

@dataclass
class PrepareResult:
    records: list[AnnotationRecord]
    split: SplitResult
    table: str = ""


def _detections_for_scene(cfg: PipelineConfig, poses: list[pose.PoseFrame],
                          frame_dims: tuple[int, int]):
    per_frame = []
    for pf in poses:
        boxes = []
        for person in pf.persons:
            box = pose.upper_body_roi(person, cfg.roi.margin, frame_dims,
                                      cfg.roi.min_confidence, cfg.roi.min_joints)
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
    os.makedirs(os.path.join(cfg.paths.work_dir, "tracks"), exist_ok=True)
    records: list[AnnotationRecord] = []
    smoothing = SmoothingConfig(window=cfg.link.smooth_window)
    for entry in manifest["scenes"]:
        video_id = entry["video_id"]
        kp_path = _keypoints_path(cfg, entry)
        if not os.path.isfile(kp_path):
            raise DataError(f"{video_id}: keypoints file not found: {kp_path}")
        with open(os.path.join(_frames_dir(cfg, entry), "meta.json")) as fh:
            meta = json.load(fh)
        poses = pose.load_poses(kp_path)
        per_frame = _detections_for_scene(cfg, poses, (meta["width"], meta["height"]))
        tracks = tracking.link_detections(per_frame, tau_new=cfg.link.tau_new,
                                          max_gap=cfg.link.max_gap)
        corr_path = _corrections_path(cfg, video_id)
        if os.path.isfile(corr_path):
            tracks = tracking.correct_assignment(tracks, tracking.parse_corrections(corr_path))
        tracks = [tracking.smooth_track(t, smoothing) for t in tracks]
        tracking.save_tracks(tracks, _tracks_path(cfg, video_id))
        track_id = _resolve_track(tracks, entry["start_frame"], entry["end_frame"], video_id)
        records.append(AnnotationRecord(
            video_id=video_id, date_tag=entry["date_tag"], track_id=track_id,
            start_frame=entry["start_frame"], end_frame=entry["end_frame"],
            label=entry["class"], action_name=entry.get("action_name", ""),
            synthetic=entry.get("synthetic", False),
        ))
    split = clipset.split_dataset(records, seed=cfg.seed)
    clipset.save_annotations(records, _annotations_path(cfg))
    split_doc = split.as_dict()
    split_doc["video_ids"] = {name: [records[i].video_id for i in getattr(split, name)]
                              for name in ("train", "val", "test")}
    with open(_splits_path(cfg), "w") as fh:
        json.dump(split_doc, fh, indent=1)
    table = render_stats(dataset_stats(records, split, cfg.clip))
    return PrepareResult(records=records, split=split, table=table)


def load_prepared(cfg: PipelineConfig) -> tuple[list[AnnotationRecord], SplitResult]:
    ann_path = _annotations_path(cfg)
    if not os.path.isfile(ann_path):
        raise DataError(f"annotations not found at {ann_path}; run prepare first")
    records = clipset.load_annotations(ann_path)
    with open(_splits_path(cfg)) as fh:
        doc = json.load(fh)
    split = SplitResult(train=doc["train"], val=doc["val"], test=doc["test"],
                        seed=doc.get("seed", 0))
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

def compute_flow(cfg: PipelineConfig, force: bool = False) -> int:
    """TV-L1 flow for every scene; returns the number of scenes processed."""
    manifest = synth.load_manifest(cfg.paths.dataset_dir)
    done = 0
    for entry in manifest["scenes"]:
        out_dir = _flow_dir(cfg, entry["video_id"])
        if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
            continue
        seq = frameio.load_sequence(_frames_dir(cfg, entry))
        flow_seq = tvl1.flow_sequence(seq, cfg.flow, clip=cfg.flow.max_flow)
        frameio.save_sequence(flow_seq, out_dir)
        done += 1
    return done


# --- clip iteration -------------------------------------------------------

def _load_scene(cfg: PipelineConfig, rec: AnnotationRecord, stream: str) -> frameio.FrameSequence:
    if stream == "rgb":
        return frameio.load_sequence(os.path.join(cfg.paths.dataset_dir, "scenes",
                                                  rec.video_id, "frames"))
    flow_dir = _flow_dir(cfg, rec.video_id)
    if not os.path.isdir(flow_dir):
        raise DataError(f"{rec.video_id}: flow not computed at {flow_dir}; run flow first")
    return frameio.load_sequence(flow_dir)


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


def _record_windows(cfg: PipelineConfig, rec: AnnotationRecord, stream: str, mode: str,
                    starts: list[int]):
    """Yield (start, tensor(C, 16, S, S)) for each of one record's window starts."""
    seq = _load_scene(cfg, rec, stream)
    track = _track_for(cfg, rec)
    for start in starts:
        clip = clipset.sample_clip(seq, track, start, cfg.clip, mode=mode, seed=cfg.seed)
        yield start, _to_net(clip)


def iter_windows(cfg: PipelineConfig, recs: list[AnnotationRecord], stream: str,
                 mode: str):
    """Yield (clip_id, tensor(C, 16, S, S), label) over every sampling window."""
    for rec in recs:
        for start, x in _record_windows(cfg, rec, stream, mode, _window_starts(cfg, rec)):
            yield clip_id_for(rec, start), x, rec.label


def _to_net(clip_tensor: np.ndarray) -> np.ndarray:
    """(T, H, W, C) crop to network layout (C, T, H, W), signed range.

    RGB crops arrive in [0, 1] and are mapped to [-1, 1]; zero-centered
    inputs are what the He-initialized backbone trains well on, and they
    match the flow stream, which is already signed.
    """
    x = np.ascontiguousarray(clip_tensor.transpose(3, 0, 1, 2), dtype=np.float32)
    if x.shape[0] == 3:
        x = x * np.float32(2.0) - np.float32(1.0)
    return x


# --- train ----------------------------------------------------------------

@dataclass
class TrainSummary:
    stream: str
    finetune_curve: list[float] = field(default_factory=list)
    scratch_curve: list[float] = field(default_factory=list)
    n_windows: int = 0


def _build_stills(cfg: PipelineConfig, recs: list[AnnotationRecord]):
    xs, ys = [], []
    for rec in recs:
        seq = _load_scene(cfg, rec, "rgb")
        track = _track_for(cfg, rec)
        picks = np.unique(np.linspace(rec.start_frame, rec.end_frame - 1,
                                      cfg.train.stills_per_scene).round().astype(int))
        for f in picks:
            still = clipset.sample_clip(seq, track, int(f), cfg.clip, mode="train",
                                        seed=cfg.seed, n_frames=1)
            xs.append(_to_net(still))
            ys.append(rec.label)
    if not xs:
        raise DataError("no training scenes to build the still-image task from")
    return np.stack(xs), np.asarray(ys, dtype=np.float64)


def _twin_path(cfg: PipelineConfig) -> str:
    return _ckpt_path(cfg, "twin2d")


def _get_or_train_twin(cfg: PipelineConfig, recs: list[AnnotationRecord]) -> model.Network:
    path = _twin_path(cfg)
    if os.path.isfile(path):
        return checkpoint.load_network(path)
    rgb_spec = model.i3d_mini(in_channels=3, input_size=cfg.clip.input_size)
    stills, labels = _build_stills(cfg, recs)
    pre_cfg = replace(cfg.train, epochs=cfg.train.pretrain_epochs)
    twin = training.pretrain_twin(rgb_spec, stills, labels, pre_cfg, cfg.seed)
    checkpoint.save_network(twin, path)
    return twin


def train_stream(cfg: PipelineConfig, stream: str) -> TrainSummary:
    if stream not in ("rgb", "flow"):
        raise DataError(f"stream must be rgb or flow, got {stream!r}")
    records, split = load_prepared(cfg)
    train_recs = [records[i] for i in split.train]
    if not train_recs:
        raise DataError("training split is empty")
    summary = TrainSummary(stream=stream)

    twin = _get_or_train_twin(cfg, train_recs)
    in_ch = 3 if stream == "rgb" else 2
    spec = model.i3d_mini(in_channels=in_ch, input_size=cfg.clip.input_size)
    head_cfg = replace(cfg.train, lr=cfg.train.head_lr)

    net = training.inflate_and_freeze(twin, spec, head_seed=cfg.seed + 1,
                                      flow=(stream == "flow"))
    clip_iter = ((x, y) for _, x, y in iter_windows(cfg, train_recs, stream, "train"))
    feats, labels = training.extract_features(net, clip_iter, cfg.train.batch_size)
    summary.n_windows = len(labels)
    summary.finetune_curve = training.train_head_on_features(net, feats, labels,
                                                             head_cfg, cfg.seed)
    checkpoint.save_network(net, _ckpt_path(cfg, stream))

    if stream == "rgb":
        scratch = training.scratch_head_baseline(
            spec,
            ((x, y) for _, x, y in iter_windows(cfg, train_recs, stream, "train")),
            head_cfg, cfg.seed, head_seed=cfg.seed + 1)
        summary.scratch_curve = scratch.finetune_curve
        checkpoint.save_network(scratch.network, _ckpt_path(cfg, "rgb_scratch"))
    return summary


# --- eval -----------------------------------------------------------------

def _eval_starts(cfg: PipelineConfig, rec: AnnotationRecord) -> list[int]:
    if cfg.eval.mode == "per-annotated-clip":
        if rec.n_frames < CLIP_LEN:
            raise DataError(f"{rec.video_id}: too short for a start-frame window")
        return [rec.start_frame]
    return _window_starts(cfg, rec)


def _score_stream(cfg: PipelineConfig, net: model.Network,
                  recs: list[AnnotationRecord], stream: str) -> list[float]:
    """One aggregated score per annotated clip, window scores averaged."""
    out = []
    for rec in recs:
        windows = _record_windows(cfg, rec, stream, "eval", _eval_starts(cfg, rec))
        scores = training.score_clips(net, (x for _, x in windows), cfg.train.batch_size)
        out.append(metrics.window_average(scores))
    return out


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
    records, split = load_prepared(cfg)
    test_recs = [records[i] for i in split.test]
    if not test_recs:
        raise DataError("test split is empty")
    nets = {}
    for stream in ("rgb", "flow"):
        path = _ckpt_path(cfg, stream)
        if os.path.isfile(path):
            nets[stream] = checkpoint.load_network(path)
    if not nets:
        raise DataError(f"no stream checkpoints found: rgb ({_ckpt_path(cfg, 'rgb')}), "
                        f"flow ({_ckpt_path(cfg, 'flow')})")
    warnings = [f"{s}: checkpoint missing, row marked absent"
                for s in ("rgb", "flow") if s not in nets]

    scores = {s: _score_stream(cfg, nets[s], test_recs, s) for s in nets}
    clips = []
    for i, rec in enumerate(test_recs):
        clips.append(ScoredClip(
            clip_id=clip_id_for(rec, rec.start_frame), label=rec.label,
            score_rgb=scores["rgb"][i] if "rgb" in scores else None,
            score_flow=scores["flow"][i] if "flow" in scores else None,
        ))

    metadata = {
        "dataset_hash": _dataset_hash(cfg),
        "seed": cfg.seed,
        "eval_mode": cfg.eval.mode,
        "threshold": cfg.eval.threshold,
        "n_test_clips": len(test_recs),
    }
    scratch_path = _ckpt_path(cfg, "rgb_scratch")
    if "rgb" in nets and os.path.isfile(scratch_path):
        scratch_net = checkpoint.load_network(scratch_path)
        scratch_scores = _score_stream(cfg, scratch_net, test_recs, "rgb")
        rows = []
        for name, vals in (("pretrained", scores["rgb"]), ("scratch", scratch_scores)):
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
    path = _ckpt_path(cfg, "rgb")
    if not os.path.isfile(path):
        raise DataError(f"rgb: checkpoint not found at {path}; run train --stream rgb first")
    net = checkpoint.load_network(path)
    box = None
    kp_path = os.path.join(clip_dir, "keypoints.txt")
    if os.path.isfile(kp_path):
        poses = pose.load_poses(kp_path)
        if poses and poses[0].persons:
            box = pose.upper_body_roi(poses[0].persons[0], cfg.roi.margin,
                                      (seq.frames[0].width, seq.frames[0].height),
                                      cfg.roi.min_confidence, cfg.roi.min_joints)
    x = _to_net(clipset.crop_window(seq, box, 0, CLIP_LEN, cfg.clip.input_size))
    score = float(net.score(x[None])[0])
    label = "rubbing_hands" if score >= cfg.eval.threshold else "other"
    return score, label
